from hypothesis import settings

# the same examples on every run, and no example database left on disk
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance test at the end of the run."""
    tr = terminalreporter
    rows = {}
    for outcome in ("passed", "failed", "error"):
        for rep in tr.stats.get(outcome, []):
            if "test_acceptance" not in rep.nodeid:
                continue
            when = getattr(rep, "when", None)
            if when == "call" or (when == "setup" and outcome == "error"):
                name = rep.nodeid.split("::")[-1]
                rows[name] = rows.get(name, True) and outcome == "passed"
    if rows:
        tr.write_sep("-", "acceptance criteria")
        for name in sorted(rows):
            tr.write_line(f"{name}: {'PASS' if rows[name] else 'FAIL'}")
