import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# each line that counts ends in "# +"; the tool must not read the marks
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # +


class Thing:  # +
    """Class docstring."""

    size = 2  # +

    def grow(self, by):  # +
        """Function docstring,

        with a blank line."""
        # a comment alone
        text = """a string that is no docstring  # +
        spans three lines  # +
        and counts on each"""  # +
        "a second string statement counts too"  # +
        return (self.size  # +
                + by)  # +


async def fetch():  # +
    """Async docstring."""
    return os.sep  # +
'''


def test_counts_a_fixture_module():
    assert code_lines.code_lines(FIXTURE) == FIXTURE.count("# +\n")
    assert code_lines.code_lines(FIXTURE) == 12


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     0  b.py", "    12  pkg/a.py", "    12  total", ""]
