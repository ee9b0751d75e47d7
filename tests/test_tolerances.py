"""The library's float thresholds, listed in one place.

A float threshold proves nothing, so each one the library keeps is named
here with the reason it stays; a new one has to be added to this list.
"""

import ast
import importlib
import pathlib
import pkgutil

import siegelcert

KEPT = {
    # when the root iteration stops; the disks it returns are certified
    "roots.DEFAULT_TOL",
    # the float orbit check, until orbit conditions are decided exactly:
    # collisions, indeterminacy and the closing residual
    "threelines.COLLISION_TOL",
    "threelines.INDETERMINACY_TOL",
    "threelines.ORBIT_RESIDUAL_TOL",
    # input guard on float parameters: it rejects a degenerate argument
    # before it reaches a formula; no certificate reads it
    "threelines.NONZERO_TOL",
}


def _module_float_tols():
    found = set()
    for info in pkgutil.iter_modules(siegelcert.__path__):
        module = importlib.import_module(f"siegelcert.{info.name}")
        tree = ast.parse(pathlib.Path(module.__file__).read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (isinstance(target, ast.Name) and target.id.endswith("_TOL")
                        and isinstance(getattr(module, target.id), float)):
                    found.add(f"{info.name}.{target.id}")
    return found


def test_module_level_float_tolerances_are_exactly_the_kept_ones():
    assert _module_float_tols() == KEPT
