"""Every public function, class and method of the package, and every public
module-level UPPER_CASE constant, is named, as a whole word, somewhere in the
program's own Python files (src/, bench/ or scripts/) besides its definition.
A name that only tests use is library surface kept for its own tests: delete
it, or call it; a constant nothing reads is a dead setting.

The modules are layered: the solver, network, room and signal modules
import no scoring or orchestration module, and metrics imports only
errors. Importing the CLI loads no scipy.signal module: that import alone
held 46 MB of resident memory."""

import ast
import os
import re
import subprocess
import sys
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


LOWER_MODULES = ("dsp", "wpe", "danse", "netsim", "room", "signals", "complexity")
UPPER_MODULES = {"metrics", "pipeline", "cli"}


def package_imports(module: str) -> set[str]:
    """The dwpe modules that `module` imports, relatively or by package name."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                path = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "dwpe":
                path = node.module.partition(".")[2]
            else:
                continue
            # `from . import a, b` names modules; `from .a import x` names a
            found.update([path.split(".")[0]] if path else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("dwpe."))
    return found


def test_module_layering():
    assert package_imports("cli") >= {"pipeline", "room"}  # the parser finds imports
    upward = {module: sorted(package_imports(module) & UPPER_MODULES)
              for module in LOWER_MODULES}
    assert not any(upward.values()), f"lower modules import upward: {upward}"
    assert package_imports("metrics") <= {"errors"}


def test_cli_import_loads_no_scipy_signal():
    probe = ("import sys, dwpe.cli; "
             "print(sorted(m for m in sys.modules if (m + '.').startswith('scipy.signal.')))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]", f"import dwpe.cli loads {out.strip()}"
