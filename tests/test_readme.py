import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    # the README's example imports only public names, so it breaks when an
    # export it needs is dropped
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    regret, gain = map(float, capsys.readouterr().out.split())
    assert math.isfinite(regret) and gain > 0.0
