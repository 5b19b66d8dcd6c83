import contextlib
import io
import runpy
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_demo_runs_to_the_end():
    assert DEMOS
    for demo in DEMOS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(demo), run_name="__main__")
        assert out.getvalue(), f"{demo.name} printed nothing"
