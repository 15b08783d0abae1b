import vrcubic
from vrcubic import cubic, diagnostics, drivers, estimators, finite_sum, objectives

MODULES = (cubic, diagnostics, drivers, estimators, finite_sum, objectives)


def test_package_republishes_every_module_export():
    exported = set().union(*(module.__all__ for module in MODULES))
    assert set(vrcubic.__all__) == exported | {"__version__"}
    assert len(vrcubic.__all__) == len(set(vrcubic.__all__))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(vrcubic, name) is getattr(module, name), name
    # the four cubic solvers: the Lanczos solver the free driver uses, the
    # exact one, and the paper's two gradient solvers kept as references
    for name in ("cubic_krylov", "solve_exact", "cubic_subsolver", "cubic_finalsolver"):
        assert name in cubic.__all__ and getattr(vrcubic, name) is getattr(cubic, name)


def test_cli_stays_out_of_the_package_namespace():
    from vrcubic import cli

    for name in cli.__all__:
        assert name not in vrcubic.__all__ and not hasattr(vrcubic, name), name
