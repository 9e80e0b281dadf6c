"""`import sympcoh` generates no code and leaves `verify` unexecuted.

Every CLI call is a fresh process, so the import is part of every
report.  The package's value classes are plain classes, not
`dataclasses`, whose decorator execs generated methods on every import,
and `sympcoh.verify` runs only when one of its names is first used.  The
import checks run in fresh processes, as this test process has long
since imported both modules.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import sympcoh

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
VERIFY_NAMES = ("VerifySummary", "random_form", "random_symplectic_structure", "run_verify",
                "transform_coframe")


def _fresh(code: str) -> str:
    """stdout of *code*, run by `python -S` with only src/ added to sys.path."""
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r}); "
    done = subprocess.run([sys.executable, "-S", "-c", prelude + code],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_neither_dataclasses_nor_the_verify_code():
    out = _fresh(
        "import sympcoh\n"
        "verify = sys.modules['sympcoh.verify']\n"
        "print('dataclasses' in sys.modules)\n"
        # object.__getattribute__ reads the dict without running the module.
        "print('run_verify' in object.__getattribute__(verify, '__dict__'))\n"
        "sympcoh.run_verify\n"
        "print('run_verify' in vars(verify), 'dataclasses' in sys.modules)\n"
    )
    assert out.split() == ["False", "False", "True", "False"]


def test_no_module_in_src_imports_dataclasses():
    for path in sorted((SRC / "sympcoh").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in [alias.name for alias in node.names], path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


def test_verify_names_resolve_to_the_verify_module_and_are_cached():
    from sympcoh import verify

    for name in VERIFY_NAMES:
        assert getattr(sympcoh, name) is getattr(verify, name)
        assert vars(sympcoh)[name] is getattr(verify, name)
    assert sympcoh.run_verify is sympcoh.verify.run_verify


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'sympcoh' has no attribute 'no_such_name'"):
        sympcoh.no_such_name
    assert not hasattr(sympcoh, "CheckResult")  # in verify, but not exported


def test_from_import_and_star_import_bind_every_public_name():
    out = _fresh(
        "from sympcoh import run_verify\n"
        "namespace = {}\n"
        "exec('from sympcoh import *', namespace)\n"
        "import sympcoh\n"
        "missing = [n for n in sympcoh.__all__ if namespace.get(n) is not getattr(sympcoh, n)]\n"
        "print(run_verify is sympcoh.verify.run_verify, missing)\n"
    )
    assert out.split() == ["True", "[]"]
    assert set(VERIFY_NAMES) <= set(sympcoh.__all__)
