import re
from pathlib import Path

from flinng import index

README = Path(__file__).resolve().parents[1] / "README.md"


def _index_file_table():
    """The rows of the README's index-file table, each as its list of cells."""
    section = README.read_text(encoding="utf-8").split("**Index file**", 1)[1]
    table = section[section.index("\n|") + 1 :].split("\n\n", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()]
    return rows[2:]  # after the heading and the rule


def test_readme_index_table_matches_the_format():
    rows = _index_file_table()
    arrays = [m.group(1) for _, _, field in rows if (m := re.match(r"`(\w+)`:", field))]
    assert arrays == list(index.IMAGE_PARTS[1:])
    versions = [int(m.group(1)) for _, _, field in rows if (m := re.fullmatch(r"u32 version \((\d+)\)", field))]
    assert versions == [index.VERSION]
