import re
import shlex
from pathlib import Path

from flinng import cli, index

README = Path(__file__).resolve().parents[1] / "README.md"


def _table_after(marker):
    """The rows of the first README table after ``marker``, each as its list of cells."""
    section = README.read_text(encoding="utf-8").split(marker, 1)[1]
    table = section[section.index("\n|") + 1 :].split("\n\n", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()]
    return rows[2:]  # after the heading and the rule


def test_readme_index_table_matches_the_format():
    rows = _table_after("**Index file**")
    arrays = [(size, m.group(1)) for _, size, field in rows if (m := re.match(r"`(\w+)`:", field))]
    assert [name for _, name in arrays] == list(index.IMAGE_PARTS[1:])
    # an item size that follows the grid's cell id width reads "width", any other its byte count
    items = [str(short.itemsize) if short == wide else "width"
             for short, wide in zip(index._image_dtypes(2), index._image_dtypes(4))]
    assert [size.split(" ", 1)[0] for size, _ in arrays] == items
    versions = [int(m.group(1)) for _, _, field in rows if (m := re.fullmatch(r"u32 version \((\d+)\)", field))]
    assert versions == [index.VERSION]


def test_readme_exit_code_table_matches_the_cli():
    codes = [int(code) for code, _ in _table_after("Exit codes are stable per error class")]
    assert codes == [0, *(code for _, code in cli.EXIT_CODES), 1]


def test_readme_commands_parse():
    # parsed, not run: a renamed or removed flag fails here instead of leaving the README stale
    blocks = re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("flinng ")]
    assert commands
    for argv in commands:
        cli.build_parser().parse_args(argv)
