import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    # the README's library example, executed as written
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.f[0] == 1 and report.converged
    assert np.all(np.isfinite(report.f))
    assert capsys.readouterr().out.startswith("[")
