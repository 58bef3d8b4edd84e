"""Every public function, class and method of the package, and every public
module-level UPPER_CASE constant, is named, as a whole word, somewhere in the
program's own Python files (src/, bench/ or scripts/) besides its definition.
A name that only tests use is library surface kept for its own tests: delete
it, or call it; a constant nothing reads is a dead setting."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dwpe"
PROGRAM_DIRS = ("src", "bench", "scripts")


def public_definitions() -> dict[str, set[tuple[Path, int]]]:
    """Public name -> the (file, line) of each of its definitions or
    assignments."""
    found: dict[str, set[tuple[Path, int]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        nodes = list(tree.body)
        nodes += [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
        for node in nodes:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found.setdefault(node.name, set()).add((path, node.lineno))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if (isinstance(target, ast.Name) and target.id.isupper()
                        and not target.id.startswith("_")):
                    found.setdefault(target.id, set()).add((path, node.lineno))
    return found


def test_public_names_have_callers_outside_tests():
    lines = [
        (path, number, text)
        for top in PROGRAM_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
        for number, text in enumerate(path.read_text().splitlines(), start=1)
    ]
    definitions = public_definitions()
    assert definitions
    unused = sorted(
        name for name, defined_at in definitions.items()
        if not any(re.search(rf"\b{name}\b", text) and (path, number) not in defined_at
                   for path, number, text in lines)
    )
    assert not unused, f"public names with no caller outside tests: {unused}"
