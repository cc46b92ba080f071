import pytest

# the reference checkers' preconditions are asserts; rewritten, they hold
# under `python -O` too, as the assertions of the test modules do
pytest.register_assert_rewrite("helpers")


@pytest.fixture
def announce(request):
    """Print a line on the real terminal, bypassing pytest's capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _announce(line):
        if capman is None:
            print(line, flush=True)
        else:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)

    return _announce
