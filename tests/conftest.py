"""Echo the acceptance verdict lines in the terminal summary (uncaptured),
and build changed pairs for the tests."""

from stablevc.vcpair import VectorClockPair


def moved(pair, **deltas):
    """A new pair whose vectors are ``pair``'s with ``deltas[name][index]``
    added modulo MAXINT: ``moved(z, curr_m={0: 2})`` counts two events at
    index 0 (no revive), ``mid`` and ``prev_o`` shift the static part.
    Pairs are values, so a test builds a changed one instead of editing."""
    vectors = []
    for name in ("curr_m", "mid", "prev_o"):
        vector = list(getattr(pair, name))
        for index, by in deltas.get(name, {}).items():
            vector[index] = (vector[index] + by) % pair.maxint
        vectors.append(vector)
    curr_m, mid, prev_o = vectors
    return VectorClockPair(pair.curr_label, curr_m, mid, pair.prev_label, prev_o, pair.maxint)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
