"""Static checks on the package source: no module-level import goes unused
(there, in the tests or in the benchmark), every runtime dependency is
imported, every definition is reached from the command line or the
benchmark, or listed below with the test that keeps it, and every defaulted
parameter is passed by some call in the program.

Reachability is a closure over names.  Its roots are the console script's
function, every name that a file under ``bench/`` reads, and every
module-level statement of the package other than imports and definitions.
A reached definition reaches each module-level function or class whose name
it reads (as a name, an attribute, an imported name or a string) and each
class member whose name it reads as an attribute or a string.  A name that
a function binds itself is a local and reads no definition.  A class
reaches its own body but not its members.  Tests are not readers, so a
helper that only tests call stays only if it is listed: in ``REFERENCES``
when it is a slow, plain version of a fast path that a test compares with
it, in ``PAPER_ARTIFACTS`` when a test reproduces a claim of the paper with
it.  Listed definitions are roots too (a listed class with its members), so
what they use is reached; a listed name that the roots reach without the
tables must be delisted.

Both rules read the same files, ``src/`` and ``bench/``: a parameter that
only tests pass is a constant of the program."""

import ast
import re
import textwrap
from pathlib import Path

import pytest

import gridcode

PACKAGE = Path(gridcode.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent


def _readers(root: Path) -> list[Path]:
    """The files whose reads count: ``src/`` and ``bench/``, never tests."""
    return sorted(p for folder in ("src", "bench") for p in (root / folder).rglob("*.py"))


READERS = _readers(ROOT)

# name -> (the fast path it checks, the test that compares them)
REFERENCES = {
    "apply_restriction": (
        "run_test_once's table read through restriction_query_masks",
        "test_tester.py::test_restricted_function_matches_polynomial_restriction"),
    "query_mask": (
        "restriction_query_masks, one point at a time",
        "test_cube.py::test_restriction_query_masks_match_pointwise"),
    "decode_from_ball": (
        "local_decode's sum over the zero-tail answers",
        "test_values_at.py::test_decoder_runs_alike_on_table_and_oracle"),
    "direct_restriction": (
        "sample_buckets_direct_sizes, as the whole restriction",
        "test_restrict.py::test_direct_restriction_has_the_sizes_of_the_sizes_sampler"),
    "sample_restriction_direct": (
        "sample_buckets_direct_sizes, from the same seed",
        "test_restrict.py::test_direct_restriction_has_the_sizes_of_the_sizes_sampler"),
    "identify_variables": (
        "run_test_once's table read, against the reference sampler's merge steps",
        "test_tester.py::test_identification_chain_agrees_with_table_restriction"),
    "MultilinearPoly.evaluate_residue": (
        "MultilinearPoly.truth_table and PolyPoints.values_at",
        "test_values_at.py::test_point_terms_agree_with_truth_table"),
    "CodeEnumeration.index_of": (
        "the tie-break of nearest_codeword",
        "test_oracle.py::test_nearest_tie_break_is_lexicographic"),
    "closest_poly_on_set": (
        "tolerant_test's step 3, which reads f at the query masks, from the restricted table",
        "test_tolerant.py::test_tolerant_report_matches_the_table_reference"),
}

_FAITHFUL = "the tester's theoretical regime: k = M d, eps1, ell and eps0, and its constraints"
_HARD = "decoding over large characteristic fails against erased linear functions"
# name -> (the paper claim it reproduces, the test that reproduces it)
PAPER_ARTIFACTS = {
    **{name: (_FAITHFUL, "test_tester.py::test_faithful_params_constraints")
       for name in ("TesterParams.faithful", "TesterParams.M", "TesterParams.eps1",
                    "TesterParams.eps0", "TesterParams.ell")},
    "DecoderParams.tolerance": (
        "the local decoder succeeds with probability 3/4 up to corruption 1/(4 C(2k,k))",
        "test_acceptance.py::test_a06_decoder_success_rate"),
    "HardFunction": (_HARD, "test_lowerbound.py::test_hard_function_erasure_bound_exact_count"),
    "sample_hard_function": (_HARD, "test_pinned_results.py::test_hard_functions_pinned"),
    "decoder_stress": (
        _HARD, "test_lowerbound.py::test_decoder_stress_erased_queries_carry_no_information"),
    "StressReport": (
        _HARD, "test_lowerbound.py::test_decoder_stress_erased_queries_carry_no_information"),
    "erased_fraction_bound": (
        "the erased inputs are at most a 2 exp(-n / (2 s^2)) fraction",
        "test_lowerbound.py::test_hard_function_erasure_bound_exact_count"),
    "span_exponent": (
        "the query scale ln s / ln ln s of the span lower bound",
        "test_acceptance.py::test_a08_balanced_span_impossibility"),
    "asymptotic_window": (
        "the dual witness's distance window [k/4, 3k/4]",
        "test_dualwitness.py::test_greedy_capacity_meets_ball_bound"),
    "min_bucket_tail": (
        "every bucket reaches size r/(4k) with positive probability",
        "test_restrict.py::test_min_bucket_tail_positive_and_stable"),
    "restricted_min_distance": (
        "the code keeps its distance on a random sample of the small cube",
        "test_acceptance.py::test_a09_restricted_code_distance"),
}

LISTED = {**REFERENCES, **PAPER_ARTIFACTS}


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that the module never
    reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", [*SOURCES, *sorted(TESTS.glob("*.py")),
                                  *sorted((ROOT / "bench").glob("*.py"))],
                         ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _bound(function) -> set[str]:
    """The names a function or lambda binds itself: its parameters, the
    names it stores, imports or catches, and the functions and classes it
    defines, less those it declares ``global`` or ``nonlocal``.  Nested
    functions, lambdas and classes are not entered."""
    bound = {a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)}
    free = set()
    stack = list(function.body) if isinstance(function.body, list) else [function.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            free |= set(node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue
        if not isinstance(node, ast.Lambda):
            stack += ast.iter_child_nodes(node)
    return bound - free


def _reads(nodes) -> tuple[set[str], set[str]]:
    """(every name the nodes read, the names they read as an attribute or a
    string).  Loaded and imported names are the first kind only, since a
    class member is read only through an attribute or a string; a dotted
    string such as "Class.method" reads each of its parts.  A name loaded in
    the body of a function that binds it, or of a function nested in one,
    reads that local and does not count."""
    names, attributes = set(), set()
    stack = [(root, frozenset()) for root in nodes]
    while stack:
        node, local = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # decorators, defaults and annotations belong to the enclosing scope
            body = node.body if isinstance(node.body, list) else [node.body]
            outer = [*getattr(node, "decorator_list", ()), node.args,
                     *filter(None, [getattr(node, "returns", None)])]
            inner = local | _bound(node)
            stack += [(n, local) for n in outer] + [(n, inner) for n in body]
            continue
        if isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attributes |= {node.value, *node.value.split(".")}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
        stack += [(child, local) for child in ast.iter_child_nodes(node)]
    return names | attributes, attributes


def _members(cls: ast.ClassDef):
    """(name, node) of a class's methods, properties and annotated fields
    (dataclass and NamedTuple), dunder names left out."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        else:
            continue
        if not (name.startswith("__") and name.endswith("__")):
            yield name, node


class _Definition:
    """A module-level function or class, or a class member, with what it
    reads once reached."""

    def __init__(self, path: Path, qualname: str, member: bool, body):
        self.label = f"{path.name}:{qualname}"
        self.qualname = qualname
        self.name = qualname.rpartition(".")[2]
        self.member = member
        self.reads = _reads(body)


def _definitions_and_roots(readers, package: Path):
    """The definitions of the package's modules among ``readers``, and the
    reads of everything else the readers hold."""
    definitions, roots = [], []
    for path in readers:
        tree = ast.parse(path.read_text())
        if path.parent != package:
            roots.append(tree)
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                definitions.append(_Definition(path, node.name, False, [node]))
            elif isinstance(node, ast.ClassDef):
                members = list(_members(node))
                kept = {id(m) for _, m in members}
                body = [*node.decorator_list, *node.bases, *node.keywords,
                        *(b for b in node.body if id(b) not in kept)]
                definitions.append(_Definition(path, node.name, False, body))
                definitions += [_Definition(path, f"{node.name}.{name}", True, [m])
                                for name, m in members]
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots.append(node)
    return definitions, _reads(roots)


def _reached(definitions, roots, entry_points, listed) -> set[str]:
    """Labels of the definitions that the roots, the entry points and the
    listed qualified names reach; a listed class brings its members."""
    names, attributes = set(roots[0]) | set(entry_points), set(roots[1])
    reached = set()

    def reach(definition):
        reached.add(definition.label)
        names.update(definition.reads[0])
        attributes.update(definition.reads[1])

    for definition in definitions:
        if definition.qualname in listed or (
                definition.member and definition.qualname.partition(".")[0] in listed):
            reach(definition)
    grown = True
    while grown:
        grown = False
        for definition in definitions:
            if definition.label not in reached and definition.name in (
                    attributes if definition.member else names):
                reach(definition)
                grown = True
    return reached


def _entry_points(root: Path) -> list[str]:
    """Function names of the console scripts in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    return [target.rpartition(":")[2] for target in scripts.values()]


def _unreached(readers, package: Path, entry_points, listed=()) -> list[str]:
    """Labels of the package's definitions that nothing reaches."""
    definitions, roots = _definitions_and_roots(readers, package)
    reached = _reached(definitions, roots, entry_points, set(listed))
    return [d.label for d in definitions if d.label not in reached]


def test_module_level_definitions_are_read():
    unreached = _unreached(READERS, PACKAGE, _entry_points(ROOT), LISTED)
    assert [label for label in unreached if "." not in label.partition(":")[2]] == []


def test_class_members_are_read():
    unreached = _unreached(READERS, PACKAGE, _entry_points(ROOT), LISTED)
    assert [label for label in unreached if "." in label.partition(":")[2]] == []


def test_listed_names_are_reached_only_through_the_tables():
    definitions, roots = _definitions_and_roots(READERS, PACKAGE)
    qualnames = {d.qualname for d in definitions}
    assert sorted(set(LISTED) - qualnames) == []
    assert len(LISTED) == len(REFERENCES) + len(PAPER_ARTIFACTS)
    reached = _reached(definitions, roots, _entry_points(ROOT), set())
    assert sorted(d.qualname for d in definitions
                  if d.qualname in LISTED and d.label in reached) == []


@pytest.mark.parametrize("name", sorted(LISTED))
def test_listed_test_exists(name):
    file, _, test = LISTED[name][1].partition("::")
    tree = ast.parse((TESTS / file).read_text())
    assert test in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_checker_reports_a_helper_that_only_a_test_reads(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(textwrap.dedent("""\
        def main():
            return _used()


        def _used():
            return 1


        def only_tested():
            return 2
        """))
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import only_tested\n\n\ndef test_it():\n    assert only_tested() == 2\n")
    readers = _readers(tmp_path)
    assert _unreached(readers, package, ["main"]) == ["mod.py:only_tested"]
    assert _unreached(readers, package, ["main"], ["only_tested"]) == []
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("from pkg.mod import only_tested\n")
    assert _unreached(_readers(tmp_path), package, ["main"]) == []


def _calls(paths) -> dict[str, list[tuple[int, bool, set]]]:
    """Callee name -> (positional count, whether one is ``*``-unpacked, the
    keywords, None standing for a ``**`` unpacking) of each call in the
    files; the callee's name is a called name or a called attribute."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = getattr(node.func, "id", None) or node.func.attr
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append(
                    (len(node.args), starred, {k.arg for k in node.keywords}))
    return calls


def _functions(package: Path):
    """(label, callee name, positional arguments a call skips, node) of every
    module-level function and every method of a module-level class; calls
    of a method skip ``self`` or ``cls``, and ``__init__`` is called through
    its class."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.name}:{node.name}", node.name, 0, node
            elif isinstance(node, ast.ClassDef):
                for method in (m for m in node.body if isinstance(m, ast.FunctionDef)):
                    callee = node.name if method.name == "__init__" else method.name
                    yield f"{path.name}:{node.name}.{method.name}", callee, 1, method


def _unpassed_defaults(callers, package: Path) -> list[str]:
    """``label(parameter)`` for each defaulted parameter that no call passes.

    A call passes a parameter by keyword, by ``**``, by position or by a
    ``*``-unpacked positional argument.  Calls are matched by the callee's
    name alone, so a same-named function elsewhere can hide a finding."""
    calls = _calls(callers)
    unpassed = []
    for label, callee, skipped, node in _functions(package):
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        params = [(p.arg, i - skipped) for i, p in enumerate(positional) if i >= first]
        params += [(p.arg, None) for p, default in zip(args.kwonlyargs, args.kw_defaults)
                   if default is not None]
        for name, index in params:
            if not any(name in keywords or None in keywords
                       or (index is not None and (starred or count > index))
                       for count, starred, keywords in calls.get(callee, [])):
                unpassed.append(f"{label}({name})")
    return unpassed


def test_every_defaulted_parameter_is_passed():
    assert _unpassed_defaults(READERS, PACKAGE) == []


def test_checker_reports_a_default_that_no_call_passes(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(textwrap.dedent("""\
        def main(a=1, b=2, *, c=3, d=4):
            return Box(5).scale(2) + helper(*[1])


        def helper(x=0, y=0):
            return x + y


        class Box:
            def __init__(self, size=1, tag=None):
                self.size = size

            def scale(self, factor=1, offset=0):
                return self.size * factor + offset
        """))
    unpassed = ["mod.py:main(a)", "mod.py:main(b)", "mod.py:main(c)", "mod.py:main(d)",
                "mod.py:Box.__init__(tag)", "mod.py:Box.scale(offset)"]
    assert _unpassed_defaults(_readers(tmp_path), package) == unpassed
    calls = "main(0, d=1, **{})\nBox(1, 'x').scale(1, 2)\n"
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(calls)
    assert _unpassed_defaults(_readers(tmp_path), package) == unpassed
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(calls)
    assert _unpassed_defaults(_readers(tmp_path), package) == []


def test_checker_reports_a_name_that_a_bench_function_binds_locally(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(textwrap.dedent("""\
        def main():
            return 1


        def distance():
            return 2
        """))
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(textwrap.dedent("""\
        import pkg.mod


        def job(pairs):
            for distance, _ in pairs:
                yield distance, lambda: distance + pkg.mod.main()
        """))
    readers = _readers(tmp_path)
    assert _unreached(readers, package, ["main"]) == ["mod.py:distance"]
    (tmp_path / "bench" / "run.py").write_text("from pkg.mod import distance\n")
    assert _unreached(_readers(tmp_path), package, ["main"]) == []


def test_runtime_dependencies_are_imported():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    required = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    imported = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert sorted(required - imported) == []
