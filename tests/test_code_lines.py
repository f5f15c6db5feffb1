"""The code-line counter that CI reports for src/qgscatter."""

import importlib.util
import pathlib

COUNTER = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring."""

# a comment
class C:
    """Class docstring."""

    def f(self, x):
        """Function docstring
        over two lines."""
        y = (x +
             1)  # trailing comment

        return "not a docstring"
'''


def test_counts_code_lines_per_file_and_in_total(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("code_lines", COUNTER)
    counter = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counter)
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(SAMPLE)
    b.write_text("x = 1\n\n# done\n")
    counter.main([str(a), str(b)])
    # a.py: class C, def f, the two lines of y = ..., return
    assert capsys.readouterr().out.splitlines() == [
        f"      5 {a}", f"      1 {b}", "      6 total"]
