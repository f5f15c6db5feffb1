"""The README's python blocks run as written and print what they promise."""

import ast
import contextlib
import io
import math
import pathlib
import re

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 2
    monkeypatch.chdir(ROOT)  # the blocks read data/ relative to the root
    outputs = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), {})
        outputs.append(out.getvalue().splitlines())
    poles, trapped = (ast.literal_eval(line) for line in outputs[0][:2])
    # the quickstart's resonator: poles (2m+1) pi/2 - (ln 3)/2 i, trapped
    # states at m pi
    expected = [(2 * m + 1) * math.pi / 2 - 0.5j * math.log(3.0) for m in range(3)]
    np.testing.assert_allclose(poles, expected, atol=1e-8)
    np.testing.assert_allclose(trapped, [m * math.pi for m in range(4)], atol=1e-8)
    assert all(isinstance(k, complex) for k in poles + trapped)
    eigenvalues = np.array(outputs[0][2].strip("[]").split(), dtype=float)
    np.testing.assert_allclose(eigenvalues, [math.pi, 2 * math.pi, 3 * math.pi], atol=1e-7)
    assert len(outputs[1]) == 3  # the 3 x 3 quotient
