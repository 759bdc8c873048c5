"""What a run imports: each process loads only the modules it calls.

Every check runs in a fresh interpreter, since this test process has
long since imported everything.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def loaded_after(code: str) -> set[str]:
    """The ``repro`` modules in ``sys.modules`` once ``code`` has run."""
    probe = (
        f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
        "import json\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'repro' or m.startswith('repro.'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def under(modules: set[str], package: str) -> set[str]:
    return {m for m in modules if m == package or m.startswith(package + ".")}


def test_import_repro_loads_no_subpackage():
    assert loaded_after("import repro") == {"repro", "repro.lazy"}


def test_fig9_loads_no_subsystem_it_does_not_call():
    loaded = loaded_after("import repro.experiments.fig9_pad")
    assert "repro.experiments.fig9_pad" in loaded
    for package in ("repro.service", "repro.fuzz", "repro.search",
                    "repro.model", "repro.symbolic", "repro.obs.report",
                    "repro.obs.diff"):
        assert not under(loaded, package), package


def test_cli_imports_only_the_experiment_it_runs():
    loaded = loaded_after(
        "import contextlib, io, runpy\n"
        "sys.argv = ['repro.experiments', 'table1', '--quick', '--no-cache',"
        " '--workers', '1']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('repro.experiments', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert not exc.code, exc.code\n"
    )
    from repro.experiments.__main__ import EXPERIMENTS

    experiments = set(EXPERIMENTS.values())
    assert loaded & experiments == {EXPERIMENTS["table1"]}


def test_star_import_binds_every_exported_name():
    loaded_after(
        "from repro import *\n"
        "import repro\n"
        "missing = [n for n in repro.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "assert all(globals()[n] is getattr(repro, n) for n in repro.__all__)\n"
    )


def test_an_export_named_like_its_module_keeps_the_name():
    """Importing ``repro.transforms.pad`` (the module) must not turn the
    export ``repro.transforms.pad`` (the function) into the module."""
    loaded_after(
        "import repro.transforms.pad\n"
        "from repro.transforms import pad\n"
        "assert pad is sys.modules['repro.transforms.pad'].pad\n"
        "from repro.transforms import grouppad\n"
        "import repro.transforms.grouppad\n"
        "assert repro.transforms.grouppad is grouppad\n"
        "assert grouppad is sys.modules['repro.transforms.grouppad'].grouppad\n"
    )
