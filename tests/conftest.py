from hypothesis import settings

# a fixed sample of 200 examples, for CI: pytest --hypothesis-profile=ci
settings.register_profile("ci", derandomize=True, deadline=None, max_examples=200)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end checks")
