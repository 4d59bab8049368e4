"""The README's "Package layout" table names only what its modules hold."""
import importlib
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
ROW = re.compile(r"^\| `(zenogeo\.\w+)` \| (.*) \|$")


def layout_rows():
    rows = [ROW.match(line) for line in README.read_text(encoding="utf-8").splitlines()]
    return [(m.group(1), re.findall(r"`([^`]*)`", m.group(2))) for m in rows if m]


def test_every_backticked_name_is_an_attribute_of_its_module():
    rows = layout_rows()
    assert [module for module, _ in rows] == [
        f"zenogeo.{name}" for name in ("linalg", "geometry", "zeno", "qubit", "jsonio", "cli")
    ]
    for module, names in rows:
        mod = importlib.import_module(module)
        missing = [n for n in names if not (n.isidentifier() and hasattr(mod, n))]
        assert not missing, f"{module}: {missing}"
