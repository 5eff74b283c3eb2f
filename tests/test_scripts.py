import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_separatrix_demo_runs(capsys):
    # starts at x1 = -0.1, 0, 0.1: the two off the separatrix reach a minimum
    load_script("separatrix_demo").main(["--offsets", "3", "--t-max", "30"])
    out = capsys.readouterr().out
    assert "2/3 starts converged; 1 (the separatrix itself) timed out" in out


def test_separatrix_demo_counts_off_line_timeouts(capsys):
    # at t_max = 5 no start reaches a minimum; only x1 = 0 is on the separatrix
    load_script("separatrix_demo").main(["--offsets", "3", "--t-max", "5"])
    out = capsys.readouterr().out
    assert ("0/3 starts converged; 1 (the separatrix itself) timed out; "
            "2 off the separatrix timed out.") in out
