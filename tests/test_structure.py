"""Source-level guards on the dense basis layer and on the recorded orbits.

Traces on intervals whose homology spreads over several degrees come from
orbit complexes and sparse integer ranks, so no engine path forms a dense
kernel, column-space basis or solve.  ``exactlin.kernel_basis`` and
``exactlin.solve_in_basis`` stay in ``src/`` only because the benchmark
tracer hooks both names (``tests/test_bench_hooks.py``); these checks keep
them, and the deleted ``column_space_basis`` and ``independent_extension``,
from quietly returning to an engine path.

The lattice records its Aut(n)-orbits while it is built, so orbit lookups,
primitive classes and the freeness check read them and act out no group
element; the orbit walkers that re-derived them stay deleted.

The lattice keeps every atom's names, so the group action, the orbit
decomposition and a cache load map elements by lookup and reduce no rows:
none of them calls the column scatters, ``pullback`` or ``_rref_rows``, and
the per-element reduction ``permute_element`` stays deleted.

The value classes come from ``arrstab.record``, a leaf module, so no engine
module imports ``dataclasses`` at start-up; and ``exactlin.intersect``, which
no engine path called once the closure met atoms incrementally, stays
deleted.

Character polynomials are read off the primitive generator characters, not
fitted: ``checks`` sums them into one table per H^i, whose values are the
binomial form's coefficients, expands it into powers through the
``CharacterPolynomial`` operators, and evaluates it at each level by counting
cycle choices.  No row reduction, degree bound or sampled level enters, so
``checks`` imports neither ``_rref_rows`` nor ``_pivot_columns``, and the
former solve, its error classes, the Stirling expansion and the sub-multiset
induction stay deleted.

An element's atom set is held in one form, the indices of its atoms, from
the closure through the lattice to the cache file: no module brings back the
per-atom ``(generator, Injection)`` witness tuples, and the cache reads and
writes atom names as images, not ``Injection`` objects.  The poset helpers
and the class-function wrapper that no engine path used stay deleted, and so
do ``RankedPoset``, ``IntersectionLattice.lower_interval`` and ``index_of``:
an interval's order complex is read off the lattice's order table, and
``order_complex`` grows its chains already sorted.  Lattices are not cut
down to a smaller codim: the normality check compares only distinct
generator degrees, so a job asks for one cutoff per degree but at the
degrees such a pair compares, and ``IntersectionLattice.truncated`` and
``checks._freeness_codim`` stay deleted.

Start-up loads only the config layer: ``cli`` imports no arrstab module but
``record`` and ``fim`` when it is imported, and the arrangement spec lives in
``fim``, which imports no engine module, so loading a job config compiles no
lattice, homology, character or cache code.  Class functions live in
``fim``, beside the conjugacy classes they are defined on.  Character
polynomials live in ``polynomial``, which imports only ``fim`` and
``record``, so a config with a twisted polynomial compiles no engine module
either.  No module imports ``polynomial`` when it loads (a ``TYPE_CHECKING``
block names it for annotations only): the fit and the binomial form import
it where they run, so a job that neither fits nor twists never compiles it.
Likewise no module imports ``checks`` when it loads: ``run`` imports it only
for the outputs it computes, so a Betti, character or stability job compiles
none of the freeness, normality, fit or twisted code.

Every character value comes from ``LatticeHomology.trace``, the identity's
(the Betti number) included, and ``betti_report`` and ``trace`` read one
degree window; the wrappers that built a fresh context per call, the
report's text table and the second window helper stay deleted.  ``run``
computes its levels through ``_run_shares`` alone, for every ``--jobs``.

The freeness check reads its generator characters from the level results,
one context per level or class degree in the level workers: neither
``checks.verify_free_decomposition`` nor ``run`` and the ``freeness``
output it calls builds a lattice or a homology context of its own.  The
outputs in ``checks`` take those results as plain maps, so only ``run``
reads the level workers' payloads, and none takes the job config.

Only ``cli`` touches process-global state of the interpreter: ``main``
registers the exit hook that freezes the heap, and no library module imports
``gc`` or ``atexit``.

Every function and method in ``src/`` is reached: other code in ``src/``
names it, it is a public name of the package, or the benchmark tracer
(``perfbench/tracer.py``, read here as source) hooks it.  A short allowlist
gives the reason for each exception.  The downward-stability lemma is a
property test (``tests/test_arrangement.py``), not engine code, and the
permutation, class-function and matrix helpers that no command used stay
deleted.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "arrstab"
TRACER = SRC.parent.parent / "perfbench" / "tracer.py"
DENSE_BASIS = {"kernel_basis", "solve_in_basis", "column_space_basis", "independent_extension"}

MODULES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for path in sorted(SRC.glob("*.py"))
}


def test_every_engine_module_is_parsed():
    assert {"exactlin", "homology", "characters", "arrangement", "cli", "checks"} <= set(MODULES)


def test_homology_imports_nothing_from_exactlin():
    for node in ast.walk(MODULES["homology"]):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[-1] != "exactlin"
            assert "exactlin" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(alias.name.endswith("exactlin") for alias in node.names)


def test_no_engine_module_uses_the_dense_basis_names():
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert called not in DENSE_BASIS, f"{name} calls {called}"
            elif isinstance(node, ast.ImportFrom):
                imported = {alias.name for alias in node.names} & DENSE_BASIS
                assert not imported, f"{name} imports {imported}"


def function(module, name):
    return next(
        node
        for node in ast.walk(MODULES[module])
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def test_orbit_readers_act_out_no_group_element():
    for module, name in [
        ("arrangement", "orbit_of"),
        ("checks", "primitive_classes"),
        ("checks", "verify_free_decomposition"),
    ]:
        for node in ast.walk(function(module, name)):
            used = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            assert used not in {"act", "action"}, f"{module}.{name} uses {used}"


def test_orbit_of_is_a_lookup():
    loops = (ast.For, ast.While, ast.comprehension)
    assert not any(isinstance(node, loops) for node in ast.walk(function("arrangement", "orbit_of")))


def test_orbit_walkers_are_gone():
    defined = {
        node.name for node in ast.walk(MODULES["arrangement"]) if isinstance(node, ast.FunctionDef)
    }
    assert "_subspace_orbit" not in defined
    assert "orbit_of" in defined  # the benchmark tracer hooks it


def method(module, cls, name):
    owner = next(
        node
        for node in ast.walk(MODULES[module])
        if isinstance(node, ast.ClassDef) and node.name == cls
    )
    return next(node for node in owner.body if isinstance(node, ast.FunctionDef) and node.name == name)


ROW_REDUCTIONS = {"scatter_rows", "scatter_columns", "pullback", "_rref_rows"}


def test_lookups_reduce_no_rows():
    for label, tree in [
        ("IntersectionLattice.act", method("arrangement", "IntersectionLattice", "act")),
        ("IntersectionLattice.meet_of_atoms", method("arrangement", "IntersectionLattice", "meet_of_atoms")),
        ("_atom_images", function("arrangement", "_atom_images")),
        ("orbit_decomposition", function("checks", "orbit_decomposition")),
        ("cache.load", function("cache", "load")),
    ]:
        for node in ast.walk(tree):
            used = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            assert used not in ROW_REDUCTIONS, f"{label} uses {used}"


def test_permute_element_is_gone():
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            used = getattr(node, "name", None) or getattr(node, "attr", None)
            assert used != "permute_element", f"{name} mentions permute_element"
    # the benchmark tracer hooks the action
    assert method("arrangement", "IntersectionLattice", "act")



def imported_modules(tree):
    """Each import of the module as (level, dotted name): level 0 is absolute,
    and ``from . import x`` names x."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.level, node.module
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.level, alias.name) for alias in node.names)


def test_no_engine_module_imports_dataclasses():
    for name, tree in MODULES.items():
        for level, module in imported_modules(tree):
            assert (level, module.split(".")[0]) != (0, "dataclasses"), f"{name} imports dataclasses"


def test_record_imports_nothing_from_arrstab():
    for level, module in imported_modules(MODULES["record"]):
        assert level == 0 and module.split(".")[0] != "arrstab", f"record imports {module!r}"


def test_intersect_is_gone():
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            used = getattr(node, "name", None) or getattr(node, "attr", None) or getattr(node, "id", None)
            assert used != "intersect", f"{name} mentions intersect"


def test_character_polynomial_fit_and_binomial_form_stay_direct():
    # the table is read off the generator characters, the polynomial off the
    # table: no lattice, homology, sampled level or linear algebra
    banned = {
        "_rref_rows", "_pivot_columns", "evaluate", "as_class_function", "LatticeHomology",
        "build_lattice", "get_lattice", "trace", "character_of_cohomology",
    }
    for name in ("primitive_table", "fit_character_polynomial", "induced_character", "fit_output"):
        used = names_in(function("checks", name)) & banned
        assert not used, f"{name} uses {used}"
    # the binomial form is the table rendered, and the power form is built
    # from the operators on variables, not from a basis change
    assert "primitive_table" not in names_in(function("checks", "fit_output"))
    assert {"constant", "variable"} <= names_in(function("checks", "fit_character_polynomial"))
    imported = {
        alias.name
        for node in ast.walk(MODULES["checks"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & {"_rref_rows", "_pivot_columns"}, imported


def test_atom_sets_have_one_representation():
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for word in ("Witness", "provenance"):
            assert word not in text, f"{path.stem} mentions {word}"


def test_cache_reads_and_writes_names_without_injections():
    for name in ("load", "_payload_lines"):
        for node in ast.walk(function("cache", name)):
            used = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            assert used != "Injection", f"cache.{name} uses Injection"


def test_unused_poset_and_character_helpers_are_gone():
    for module, owner, name in [
        ("homology", None, "whitney_homology_dims"),
        ("homology", None, "RankedPoset"),
        ("arrangement", "IntersectionLattice", "lower_interval"),
        ("arrangement", "IntersectionLattice", "index_of"),
        ("fim", "ConjClass", "level"),
        ("arrangement", "IntersectionLattice", "as_ranked_poset"),
        ("characters", None, "class_function"),
        ("checks", None, "verify_downward_stability"),
        ("checks", "OrbitDecomposition", "class_sizes"),
        ("arrangement", "IntersectionLattice", "poset_less"),
        ("characters", None, "tensor_char"),
        ("fim", None, "_pointwise"),
        ("fim", None, "compose_injections"),
        ("fim", None, "binomial_set_size"),
        ("fim", "Injection", "parse"),
        ("fim", "Injection", "render"),
        ("fim", "ConjClass", "parse"),
        ("fim", "ConjClass", "is_identity"),
        ("fim", "ClassFunction", "identity_value"),
        ("fim", "PermTuple", "compose"),
        ("fim", "PermTuple", "inverse"),
        ("fim", "PermTuple", "cycle_type"),
        ("fim", "PermTuple", "conjugacy_class"),
        ("exactlin", "RationalMatrix", "from_rows"),
        ("exactlin", "Subspace", "dim"),
        ("exactlin", "Subspace", "ambient"),
        ("checks", None, "FitError"),
        ("checks", None, "FitInconsistentError"),
        ("checks", None, "FitUnderdeterminedError"),
        ("checks", None, "_monomials_within"),
        ("checks", None, "_stirling2"),
        ("checks", None, "binomial_basis_form"),
        ("checks", None, "induction_character"),
        ("checks", None, "_sub_cycle_multisets"),
        ("fim", None, "sum_characters"),
        ("arrangement", "IntersectionLattice", "truncated"),
        ("checks", None, "_freeness_codim"),
    ]:
        scope = MODULES[module] if owner is None else next(
            node
            for node in ast.walk(MODULES[module])
            if isinstance(node, ast.ClassDef) and node.name == owner
        )
        defined = {
            node.name for node in ast.walk(scope) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert name not in defined, f"{module} defines {name}"
    classes = {node.name for node in ast.walk(MODULES["checks"]) if isinstance(node, ast.ClassDef)}
    assert "DownwardStabilityReport" not in classes
    # the benchmark tracer hooks both
    assert method("arrangement", "IntersectionLattice", "__init__")
    assert method("arrangement", "IntersectionLattice", "act")
    # a builder request is served from the memo, the disk or a build, never
    # cut from a lattice of a larger cutoff
    assert "truncated" not in names_in(method("cache", "CachingBuilder", "__call__"))


def test_order_complex_sorts_no_chains():
    # chains grow by ascending successors from sorted chains, so each
    # dimension comes out sorted and nothing re-sorts it
    for node in ast.walk(function("homology", "order_complex")):
        used = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        assert used not in {"sorted", "sort"}, f"order_complex uses {used}"


GONE_HOMOLOGY_PATHS = {"gm_betti", "equivariant_trace", "with_character", "to_text_table", "_codim_window"}


def test_character_values_have_one_path():
    # the fresh-context wrappers, the report's text extras and the second
    # copy of the degree window stay deleted, and nothing names them
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            used = getattr(node, "name", None) or getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used = node.value
            assert used not in GONE_HOMOLOGY_PATHS, f"{name} mentions {used}"
    # every character value, the identity's included, comes from ``trace``
    for module, name in [("characters", "character_of_cohomology"), ("checks", "verify_free_decomposition")]:
        for node in ast.walk(function(module, name)):
            used = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            assert used != "betti_report", f"{module}.{name} uses betti_report"
    # one level runner for every --jobs
    used = {
        node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        for node in ast.walk(function("cli", "run"))
    }
    assert "_run_shares" in used and "_level_worker" not in used
    # the benchmark tracer hooks these
    assert method("homology", "LatticeHomology", "betti_report")
    assert method("homology", "LatticeHomology", "trace")


def names_in(node):
    """Every name, attribute and parameter under ``node``."""
    return {
        getattr(sub, "id", None) or getattr(sub, "attr", None) or getattr(sub, "arg", None)
        for sub in ast.walk(node)
    }


def test_freeness_reads_the_level_results():
    builders = {"LatticeHomology", "get_lattice", "primitive_classes", "build_lattice"}
    used = names_in(function("checks", "verify_free_decomposition")) & builders
    assert not used, f"verify_free_decomposition uses {used}"
    assert "LatticeHomology" not in names_in(function("cli", "run"))
    assert "LatticeHomology" not in names_in(function("checks", "freeness_output"))
    # the outputs read plain maps: no payload key and no job config
    for name in ("freeness_output", "fit_output", "twisted_output"):
        node = function("checks", name)
        keys = {sub.value for sub in ast.walk(node) if isinstance(sub, ast.Constant)}
        assert not {"characters", "generators"} & keys, name
        assert "config" not in names_in(node), name


def arrstab_modules(nodes):
    """The arrstab modules that the imports among ``nodes`` name."""
    for node in nodes:
        for level, module in imported_modules(node):
            if level:
                yield module.split(".")[0]
            elif module.startswith("arrstab."):
                yield module.split(".")[1]


def runs_on_import(stmt):
    """Whether a top-level statement runs its imports when the module loads:
    not a function body, and not an ``if TYPE_CHECKING:`` block."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    return not (isinstance(stmt, ast.If) and getattr(stmt.test, "id", None) == "TYPE_CHECKING")


def test_cli_imports_only_the_config_layer_at_module_level():
    top = [stmt for stmt in MODULES["cli"].body if runs_on_import(stmt)]
    assert set(arrstab_modules(top)) <= {"record", "fim"}


def test_fim_imports_no_engine_module():
    imported = set(arrstab_modules([MODULES["fim"]]))
    assert not imported & {"arrangement", "homology", "characters", "cache"}, imported


def test_polynomial_imports_only_the_config_layer():
    imported = set(arrstab_modules([MODULES["polynomial"]]))
    assert imported <= {"fim", "record"}, imported


def test_no_module_imports_polynomial_when_it_loads():
    # nor the optional outputs' modules, which ``run`` imports on demand
    for name, tree in MODULES.items():
        top = [stmt for stmt in tree.body if runs_on_import(stmt)]
        assert not {"polynomial", "checks"} & set(arrstab_modules(top)), name


def test_only_cli_imports_gc_or_atexit():
    for name, tree in MODULES.items():
        if name == "cli":
            continue
        for level, module in imported_modules(tree):
            assert (level, module.split(".")[0]) not in {(0, "gc"), (0, "atexit")}, f"{name} imports {module}"


def tracer_hooks():
    """The names ``perfbench/tracer.py`` wraps: the attribute of each entry
    of its SPANS, COUNTS and YIELDS tables, a method by its own name."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    hooks = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and {"SPANS", "COUNTS", "YIELDS"} & names_in(node.targets[0]):
            hooks.update(entry.elts[1].value.split(".")[-1] for entry in node.value.elts)
    return hooks


def package_names():
    """The keys of ``arrstab._HOMES``, the package's public names."""
    for node in MODULES["__init__"].body:
        if isinstance(node, ast.Assign) and "_HOMES" in names_in(node.targets[0]):
            return {key.value for key in node.value.keys}
    raise AssertionError("arrstab defines no _HOMES")


# Definitions that no other code in src/ names, each with its reason.
UNREACHED_ALLOWED = {
    "pullback": "the tests' oracle for the rows that ``arrangement._atoms`` places",
    "passed": "the verdict of a FreenessReport, read by the tests",
}


def test_every_definition_is_reached():
    referenced = set()
    defined = []
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((module, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    hooks = tracer_hooks()
    assert {"kernel_basis", "orbit_of", "perm_tuples", "act"} <= hooks
    reached = referenced | package_names() | hooks
    unreached = {
        f"{module}.{name}"
        for module, name in defined
        if not (name.startswith("__") and name.endswith("__")) and name not in reached
    }
    assert {name.split(".")[-1] for name in unreached} == set(UNREACHED_ALLOWED), unreached
