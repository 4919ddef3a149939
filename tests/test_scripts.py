import importlib.util
import math
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tail_exponent_demo_prints_fitted_exponent(capsys):
    demo = load_script("tail_exponent_demo")
    assert demo.main(["--points", "17"]) == 0
    lines = capsys.readouterr().out.splitlines()
    fitted = [ln for ln in lines if ln.startswith("fitted tail exponent:")]
    assert len(fitted) == 1
    assert math.isfinite(float(fitted[0].split(":")[1]))
