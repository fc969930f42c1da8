"""Where the package takes spectral factorizations and random draws, checked
on its source.

Every factorization and inverse goes through ``algebra._lapack``, the one
LAPACK boundary, which refuses non-finite blocks before LAPACK sees them and
turns LAPACK's failures into ``DomainError``.  A private SVD loop once turned
an overflow into a raw ``LinAlgError`` instead of a ``DomainError``, and an
unguarded inverse once exited 2 on an exactly singular Gram sum; this test
keeps such calls out.
Every generator, seeding and draw stays in ``sampling``, which defines the
one seeding rule and the one draw order that seeded reports depend on; it
seeds through ``rng_from_seed`` or the one-pass mix, never a ``SeedSequence``
of its own.  ``stable_rank`` reaches the compression hooks of a space only
through its right-algebra helpers.  A tuple is stacked into one element of
``M^n`` in one place, ``ModuleTuple._stacked``, which its norm, ``stack`` and
the generation oracle read; it joins blocks with ``concatenate``, as the padding
does, and nothing names ``vstack``.  A coefficient
array is assembled into its block matrices in one place, the
``ReductionCoefficients`` constructor.  A norm that is only compared with a
bound may be a Frobenius norm, taken in one place, ``algebra._gate_norm``,
which knows when it decides as the SVD would.
``hv_perturb`` collapses its padding in one step, with no stage loop.  The
reductions work on stacked forms and build a tuple only for their outputs; the
padded tuple is the one stacked form joined onto another.  Each
intermediate tuple of a reduction is decided unimodular once, by its dual
witness, and only the outputs are checked with ``is_unimodular``'s rule.  The
reductions are deterministic: ``stable_rank`` draws nothing.  The public
``ModuleElement`` constructor projects its blocks into the space; inside the
package only ``space.element`` and the JSON loader call it.  Each rule has one
home: a residual judged only by its bound is refused by ``_require_residual``,
each pipeline call refuses below the counting bound once, and the CLI takes the
positive-number rule from ``scalars``.  The CLI and ``scalars`` load neither numpy
nor a numeric module when they are imported: each command loads what it runs.  Algebra elements, module elements
and coefficient arrays are kinds of one container, ``algebra._Blocks``, which
alone freezes blocks and defines the operand rule.  The acceptance seeds count
runs; none comes from CPython's tuple hash.  The margin rule, the smallest
singular value over ``max(1, largest)``, is written once, in ``algebra._margin``,
for one element and for a stack of trials alike.  Only Gram sums, which are
Hermitian, take their extremes from ``eigvalsh``, in one helper of the space,
which alone hands it to LAPACK; every other margin and every norm keeps the
SVD.  A density report counts
its unimodular trials through one helper of the space, which alone hands
``cholesky`` to LAPACK and falls back to the Gram margins; before it draws, a cell
the counting bound rules out is tested against the space's one closed-form
rounding bound, which only the density report reads.  A Gram sum ``x* x`` is
formed by the pairing ``_stacked_pairing``, the one per-entry sum, on a stacked
form or a stack of trials (its products come from ``_entry_products``), and by
the bracket's one product per block alone;
every other product with an adjoint is listed.  ``hv_perturb`` forms
its Gram sum once, on its one stacked form, for its route, its zero-route
verdict and its bump, and inverts nothing: the damping's inverse comes from
the bump's eigendecomposition.  Each public pipeline is one call of a private
body that returns its output with the margin that decided it, and the CLI
prints those instead of deriving them again.  Input documents are read through
one reader, ``algebra._Json``, which names the JSON path of every refusal; the
CLI maps its error alone to exit 2, so no built-in error of the computation
reads as bad input.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cstar_rank"

#: ``numpy.linalg`` itself, the routines the package calls from it, and its error type.
LAPACK = {"linalg", "svd", "eigh", "eigvalsh", "inv", "cholesky", "LinAlgError"}

RANDOM = {"standard_normal", "Generator", "PCG64", "ISeedSequence"}

#: ``(module, scope)`` of every place allowed to name a name in ``LAPACK``.  A
#: scope is the dotted path of the enclosing classes and functions, then of
#: the variable an assignment binds; it covers everything nested inside it.
ALLOWED = {
    ("algebra", "_lapack"),
    # Independent references of the acceptance battery.
    ("acceptance", "criterion_kernel_numerics.direct_sq"),
    ("acceptance", "_bounded_below"),
}


def _owner(node):
    """The last name of what an attribute is read from: ``linalg`` in ``np.linalg.norm``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


class _NamedUses(ast.NodeVisitor):
    """Collects name, scope and line of every attribute or import named in
    ``names``; a name ``owner.attr`` matches only ``attr`` read from ``owner``."""

    def __init__(self, names):
        self.names = names
        self.scope = []
        self.found = []

    def _nested(self, name, node):
        self.scope.append(name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ClassDef(self, node):
        self._nested(node.name, node)

    visit_FunctionDef = visit_ClassDef

    def visit_Assign(self, node):
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            self._nested(node.targets[0].id, node)
        else:
            self.generic_visit(node)

    def _match(self, owner, name):
        for candidate in (name, f"{owner}.{name}"):
            if candidate in self.names:
                return candidate
        return None

    def visit_Attribute(self, node):
        name = self._match(_owner(node.value), node.attr)
        if name:
            self.found.append((name, ".".join(self.scope), node.lineno))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        # ``from numpy.linalg import svd`` would hide the calls from the check above.
        owner = (node.module or "").rpartition(".")[2]
        for alias in node.names:
            name = self._match(owner, alias.name)
            if name:
                self.found.append((name, ".".join(self.scope), node.lineno))


def _allowed_scope(module, scope, scopes=ALLOWED):
    for allowed_module, allowed in scopes:
        if module == allowed_module and (scope == allowed or scope.startswith(allowed + ".")):
            return allowed_module, allowed
    return None


class _NamedCalls(_NamedUses):
    """Collects name, scope and line of every call of a name in ``names``;
    reading or importing the name is not a call."""

    def visit_Call(self, node):
        for name in _read_names(node.func):
            if name in self.names:
                self.found.append((name, ".".join(self.scope), node.lineno))
        self.generic_visit(node)

    def visit_Attribute(self, node):
        self.generic_visit(node)

    visit_ImportFrom = visit_Attribute


def _uses(names, visitor_class=_NamedUses):
    """``(module, name, scope, line)`` of every use of ``names`` in the package."""
    for path in sorted(SRC.glob("*.py")):
        visitor = visitor_class(names)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        for name, scope, line in visitor.found:
            yield path.stem, name, scope, line


def test_spectral_factorizations_stay_in_the_allowed_scopes():
    used, stray = set(), []
    for module, name, scope, line in _uses(LAPACK):
        allowed = _allowed_scope(module, scope)
        if allowed is None:
            stray.append(f"{module}.py:{line} names {name} in {scope or '<module>'}")
        else:
            used.add(allowed)
    assert not stray, "numpy.linalg outside algebra._lapack: " + ", ".join(stray)
    # An entry nothing uses any more must leave the list.
    assert used == ALLOWED


def test_random_draws_stay_in_sampling():
    uses = list(_uses(RANDOM))
    stray = [
        f"{module}.py:{line} in {scope or '<module>'}"
        for module, _, scope, line in uses
        if module != "sampling"
    ]
    assert not stray, "generator, seeding or draw outside sampling.py: " + ", ".join(stray)
    # The rule is not vacuous: sampling names all four.
    assert {name for _, name, _, _ in uses} == RANDOM


def test_only_rng_from_seed_and_the_pass_seed():
    # rng_from_seed seeds through the SeedSequence inside PCG64, and the pass
    # in trial_draws writes that mixing out; a SeedSequence built by hand
    # would be a third seeding route.
    found = [f"{module}.py:{line}" for module, _, _, line in _uses({"SeedSequence"})]
    assert not found, "SeedSequence named at " + ", ".join(found)


#: What stacks blocks, and the one place allowed to stack them, the stacked form of a
#: tuple, and the one place allowed to join two stacked forms, the padded tuple.
STACKING = {"vstack", "concatenate"}
STACKING_SCOPES = {("hilbert_module", "ModuleTuple._stacked"), ("stable_rank", "_pad_with_bump")}


def test_tuples_are_stacked_in_one_place():
    uses = list(_uses(STACKING))
    stray, used = _confined([(module, scope, line) for module, _, scope, line in uses], STACKING_SCOPES)
    assert not stray, "stacking outside ModuleTuple._stacked and the padding: " + ", ".join(stray)
    # The rule is not vacuous: each place does stack, once, and both join with concatenate.
    assert used == STACKING_SCOPES and len(uses) == len(STACKING_SCOPES)
    assert {name for _, name, _, _ in uses} == {"concatenate"}


#: The one place allowed to assemble a block matrix: coefficient storage.
ASSEMBLY = {"block"}
ASSEMBLED_FORM = ("stable_rank", "ReductionCoefficients.__init__")


def test_coefficients_are_assembled_in_one_place():
    # A coefficient array is stored as its block matrices, built once; an
    # ``np.block`` elsewhere would rebuild them per call.
    uses = [(module, scope) for module, _, scope, _ in _uses(ASSEMBLY)]
    stray = [
        f"{module}.py in {scope or '<module>'}"
        for module, scope in uses
        if (module, scope) != ASSEMBLED_FORM
    ]
    assert not stray, "block assembly outside ReductionCoefficients.__init__: " + ", ".join(stray)
    # The rule is not vacuous: the constructor does assemble.
    assert uses == [ASSEMBLED_FORM]


#: The numpy routines that take a Frobenius norm or sum of squares, and the one
#: place allowed to name them.  ``linalg.norm`` is named with its module, since
#: elements and tuples have ``norm`` methods of their own.  A sum of squares
#: written out by hand, such as ``(abs(b) ** 2).sum()``, is not caught.
FROBENIUS = {"vdot", "linalg.norm", "einsum"}
GATE_NORM = {("algebra", "_gate_norm")}


def test_frobenius_norms_are_taken_in_one_place():
    # Below a bound's relative margin a Frobenius norm can decide a comparison
    # differently from the SVD; only the gate primitive knows that margin.
    uses = list(_uses(FROBENIUS))
    stray = [
        f"{module}.py:{line} in {scope or '<module>'}"
        for module, _, scope, line in uses
        if _allowed_scope(module, scope, GATE_NORM) is None
    ]
    assert not stray, "Frobenius sum outside algebra._gate_norm: " + ", ".join(stray)
    # The rule is not vacuous: the primitive does take it.
    assert uses


#: Space classes whose methods must not build elements themselves.
SPACE_CLASSES = {"ModuleSpace", "CornerSpace"}


def _names_module_element(node):
    return any(
        (isinstance(n, ast.Name) and n.id == "ModuleElement")
        or (isinstance(n, ast.Constant) and n.value == "ModuleElement")
        for n in ast.walk(node)
    )


def test_space_classes_leave_elements_to_the_shared_path():
    # Elements, module actions and stack are written once, over the
    # ``_project`` and ``_stacked_space`` hooks; a per-class copy would have
    # to name ModuleElement.
    tree = ast.parse((SRC / "hilbert_module.py").read_text(encoding="utf-8"))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    assert SPACE_CLASSES <= set(classes)
    stray = [
        f"{name}.{method.name}"
        for name in sorted(SPACE_CLASSES)
        for method in classes[name].body
        if isinstance(method, ast.FunctionDef) and _names_module_element(method)
    ]
    assert not stray, "space method names ModuleElement: " + ", ".join(stray)
    # The rule is not vacuous: the shared base does name it.
    assert _names_module_element(classes["_SpaceOps"])


#: The only callers of the public element constructor, which copies, checks and
#: projects; internal code keeps the trusted ``_wrap`` and ``_projected`` paths.
ELEMENT_CONSTRUCTORS = {("hilbert_module", "_SpaceOps.element"), ("hilbert_module", "tuple_from_json_list")}


def test_only_the_space_and_the_loader_construct_elements():
    used, stray = set(), []
    for module, _, scope, line in _uses({"ModuleElement"}, _NamedCalls):
        allowed = _allowed_scope(module, scope, ELEMENT_CONSTRUCTORS)
        if allowed is None:
            stray.append(f"{module}.py:{line} in {scope or '<module>'}")
        else:
            used.add(allowed)
    assert not stray, "ModuleElement(...) outside the space and the loader: " + ", ".join(stray)
    # The rule is not vacuous: both callers do construct.
    assert used == ELEMENT_CONSTRUCTORS


def test_hv_perturb_collapses_its_padding_in_one_step():
    # Warfield's step removes all padding entries at once; a stage loop, with
    # its per-stage seeds, would need a loop and a derived seed.  hv_perturb
    # runs its private body, which returns the moved tuple with its margin.
    tree = ast.parse((SRC / "stable_rank.py").read_text(encoding="utf-8"))
    (hv,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_hv_perturb"]
    loops = [n.lineno for n in ast.walk(hv) if isinstance(n, (ast.For, ast.AsyncFor, ast.While))]
    assert not loops, f"_hv_perturb loops at lines {loops}"
    seeds = [
        n.lineno for n in ast.walk(hv)
        if (isinstance(n, ast.Name) and n.id == "derived_seed")
        or (isinstance(n, ast.Attribute) and n.attr == "derived_seed")
    ]
    assert not seeds, f"_hv_perturb derives seeds at lines {seeds}"


#: The output postconditions of ``stable_rank``: the reduced tuple and the moved tuple, in
#: ``_warfield`` and in ``_hv_perturb``, the body of ``hv_perturb``.  ``hv_pad``'s padded
#: tuple is decided by its dual witness, as ``hv_perturb``'s is.
POSTCONDITIONS = {"_warfield", "_hv_perturb"}

#: The unimodularity decision: the public test, and its rule on a margin already taken.
DECISIONS = {"is_unimodular", "_is_unimodular_at"}


#: Where ``stable_rank`` decides an intermediate tuple by its stacked dual witness: the
#: input of the Bass step (in ``_bass_reduce``, the body of ``bass_reduce``), the witness's
#: truncation and ``hv_perturb``'s padded tuple.
INTERMEDIATE_DECISIONS = {"_bass_reduce", "warfield_b_to_a", "_pad_with_bump"}


def test_reductions_decide_each_intermediate_tuple_once():
    # The dual witness that decides an intermediate tuple is passed forward; a
    # decision elsewhere would decide that fact a second time.
    # The import is not a use: it brings the names in for the postconditions.
    tree = ast.parse((SRC / "stable_rank.py").read_text(encoding="utf-8"))
    uses = {}
    for top in tree.body:
        scope = getattr(top, "name", "<module>")
        for n in ast.walk(top):
            if (isinstance(n, ast.Name) and n.id in DECISIONS) or (
                isinstance(n, ast.Attribute) and n.attr in DECISIONS
            ):
                uses.setdefault(scope, []).append(n.lineno)
    stray = [
        f"stable_rank.py:{lines} in {scope}"
        for scope, lines in uses.items()
        if scope not in POSTCONDITIONS
    ]
    assert not stray, "unimodularity decided outside the output postconditions: " + ", ".join(stray)
    # The rule is not vacuous: each postcondition does check.
    assert set(uses) == POSTCONDITIONS
    # Each intermediate tuple is decided by the one dual witness that proves it.
    duals = _scopes_naming("stable_rank", "_stacked_dual", calls_only=True)
    assert set(duals) == INTERMEDIATE_DECISIONS, duals
    assert all(len(lines) == 1 for lines in duals.values()), duals


#: Names through which a reduction would draw, or its retry schedule would start.
DRAWS = {"rng_from_seed", "random_element", "derived_seed", "ETA_INITIAL"}


def _read_names(node):
    """The names a node reads or imports: ``x``, ``obj.x`` or ``from m import x``."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def test_reductions_draw_nothing():
    # The Bass step completes the dual's head in closed form; a generator, a
    # draw or a perturbation size would bring back the random retry loop.
    tree = ast.parse((SRC / "stable_rank.py").read_text(encoding="utf-8"))
    stray = [
        f"stable_rank.py:{n.lineno} names {name}"
        for n in ast.walk(tree)
        for name in _read_names(n)
        if name in DRAWS
    ]
    assert not stray, "stable_rank draws: " + ", ".join(stray)


def test_stable_rank_leaves_the_compression_to_the_space():
    # The bump is the space's _right_calculus; the compression hooks are named
    # only in hilbert_module, so a change to them stays there.
    for hook in ("_compress", "_expand"):
        uses = _scopes_naming("stable_rank", hook)
        assert not uses, f"stable_rank names {hook} in {uses}"


def test_only_the_damping_inverts():
    # Warfield's step takes the polar completion as it is, and the damping
    # d = 1 + k b shares the eigenvectors of the bump b, so its inverse is the
    # calculus of that one eigh: an inverse in stable_rank would renormalize a
    # witness again or factor the Gram sum a second time.
    uses = _scopes_naming("stable_rank", "right_inverse")
    assert not uses, f"stable_rank names right_inverse in {uses}"


def _scopes_naming(module, name, calls_only=False):
    """``{top-level scope: lines}`` of every read (or only every call) of ``name`` in ``module``."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    uses = {}
    for top in tree.body:
        for n in ast.walk(top):
            if calls_only:
                hit = isinstance(n, ast.Call) and name in _read_names(n.func)
            else:
                hit = isinstance(n, (ast.Name, ast.Attribute)) and name in _read_names(n)
            if hit:
                uses.setdefault(getattr(top, "name", "<module>"), []).append(n.lineno)
    return uses


def test_residual_gates_share_one_rule():
    # Every "norm of a residual exceeds its bound" refusal goes through
    # _require_residual; the distance gate has its own comparison and message.
    uses = _scopes_naming("stable_rank", "_gate_norm")
    assert set(uses) == {"_require_residual", "_hv_perturb"}, f"stable_rank names _gate_norm in {uses}"
    assert len(uses["_hv_perturb"]) == 1, "_hv_perturb takes a gate norm outside its distance gate"


def test_each_call_refuses_below_the_stable_rank_once():
    # The pipelines' bodies refuse up front; the collapse they share trusts them.
    calls = _scopes_naming("stable_rank", "_refuse_below_stable_rank", calls_only=True)
    assert set(calls) == {"_bass_reduce", "_hv_perturb"}, f"counting-bound refusal called in {calls}"
    assert all(len(lines) == 1 for lines in calls.values()), calls


def test_only_the_block_container_freezes():
    # Algebra elements, module elements and coefficient arrays are all _Blocks;
    # a setflags call elsewhere would be a second freezing rule.
    calls = [(module, scope) for module, _, scope, _ in _uses({"setflags"}, _NamedCalls)]
    stray = [f"{module}.py in {scope or '<module>'}" for module, scope in calls
             if _allowed_scope(module, scope, {("algebra", "_Blocks")}) is None]
    assert not stray, "setflags outside algebra._Blocks: " + ", ".join(stray)
    # The rule is not vacuous: the container does freeze.
    assert calls


def test_the_operand_rule_is_defined_once():
    # _new and _require_same live in _Blocks; a kind names only its wording.
    defined = [
        (path.stem, cls.name, node.name)
        for path in sorted(SRC.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name in {"_new", "_require_same"}
    ]
    assert sorted(defined) == [("algebra", "_Blocks", "_new"), ("algebra", "_Blocks", "_require_same")], defined


def test_acceptance_seeds_do_not_hash():
    # A seed from hash((...)) is tied to CPython's tuple hash; the criteria
    # count their runs instead.
    tree = ast.parse((SRC / "acceptance.py").read_text(encoding="utf-8"))
    lines = [n.lineno for n in ast.walk(tree) if "hash" in _read_names(n)]
    assert not lines, f"acceptance.py names hash at lines {lines}"


def test_the_cli_leaves_the_positive_number_rule_to_the_library():
    # cli._positive applies scalars._require_positive_finite, not its own copy.
    found = [(name, line) for module, name, _, line in _uses({"math.inf", "math.nan"}) if module == "cli"]
    assert not found, f"cli names {found}"


#: What loads numpy: numpy itself and the modules of the package that import it.
NUMERIC = {"numpy", "algebra", "hilbert_module", "stable_rank", "sampling", "acceptance"}

#: The modules imported before a command is chosen, which must not load numpy.
NUMPY_FREE = ("cli", "scalars")


def _imports(module):
    """``(dotted name, line, in a function)`` of every import in ``module``; ``from m
    import x`` gives ``m.x``, since ``x`` may be a submodule."""
    found = []

    def visit(node, deferred):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name, child.lineno, deferred) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                found.extend((f"{child.module or ''}.{alias.name}".lstrip("."), child.lineno, deferred)
                             for alias in child.names)
            visit(child, deferred or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")), False)
    return found


def test_the_cli_and_the_scalar_rules_import_no_numpy_at_module_level():
    # sr-formula, --help and --version need no numpy, which took half of each
    # cold run; the CLI's loaders import a command's modules when it is chosen.
    stray = [f"{module}.py:{line} imports {name}" for module in NUMPY_FREE
             for name, line, deferred in _imports(module) if not deferred and NUMERIC & set(name.split("."))]
    assert not stray, "numpy loaded on import: " + ", ".join(stray)
    # The rule is not vacuous: the CLI's loaders do import the numeric modules.
    assert NUMERIC - {"sampling", "acceptance"} <= {
        part for name, _, deferred in _imports("cli") if deferred for part in name.split(".")}


class _CallsWithOne(_NamedCalls):
    """Collects the calls of ``names`` that take the literal 1 as an argument."""

    def visit_Call(self, node):
        if any(isinstance(a, ast.Constant) and a.value == 1 for a in node.args):
            super().visit_Call(node)
        else:
            self.generic_visit(node)


MARGIN_RULE = ("algebra", "_margin")


def test_the_margin_rule_is_written_once():
    # AlgebraElement.margin, the batched trial margins and inv_sqrt's positivity
    # test all apply _margin; a max(1, ...) elsewhere would be a second copy.
    uses = [(module, scope) for module, _, scope, _ in _uses({"max", "maximum"}, _CallsWithOne)]
    stray = [f"{module}.py in {scope or '<module>'}" for module, scope in uses if (module, scope) != MARGIN_RULE]
    assert not stray, "max(1, ...) outside algebra._margin: " + ", ".join(stray)
    # The rule is not vacuous: the margin does scale by it.
    assert uses == [MARGIN_RULE]


class _RoutineNames(_NamedUses):
    """Collects the uses of ``names`` and every string naming a routine in ``names``,
    the way ``_lapack`` is told one."""

    def visit_Constant(self, node):
        if node.value in self.names:
            self.found.append((node.value, ".".join(self.scope), node.lineno))


#: The one place that hands ``eigvalsh`` to LAPACK, the space's Gram spectrum, and
#: the callers that read a Gram sum's margin or spectrum from it; ``_hv_perturb`` is
#: the body of ``hv_perturb``.
GRAM_SPECTRUM = ("hilbert_module", "_SpaceOps._gram_spectrum")
GRAM_SPECTRUM_CALLERS = {
    ("hilbert_module", "_SpaceOps.random_gram_margins"),
    ("hilbert_module", "unimodularity_margin"),
    ("hilbert_module", "_is_unimodular_at"),
    ("hilbert_module", "_stacked_dual"),
    ("stable_rank", "_hv_perturb"),
}


def _confined(uses, scopes):
    """``(stray, used)``: the ``(module, scope, line)`` of ``uses`` outside ``scopes``,
    and the scopes that some use falls in."""
    stray, used = [], set()
    for module, scope, line in uses:
        allowed = _allowed_scope(module, scope, scopes)
        if allowed is None:
            stray.append(f"{module}.py:{line} in {scope or '<module>'}")
        else:
            used.add(allowed)
    return stray, used


def test_only_gram_sums_take_their_extremes_from_eigenvalues():
    # A Hermitian matrix's singular values are its eigenvalue moduli; another
    # element's are not.  So right_margin, AlgebraElement.margin, the norms and the
    # generation oracle keep the SVD, and the oracle shares no routine with the Gram route.
    uses = [(module, scope, line) for module, _, scope, line in _uses({"eigvalsh"}, _RoutineNames)]
    stray, used = _confined(uses, {GRAM_SPECTRUM})
    assert not stray, "eigvalsh outside the Gram spectrum: " + ", ".join(stray)
    # The rule is not vacuous: the Gram spectrum does take it, once.
    assert used == {GRAM_SPECTRUM} and len(uses) == 1
    calls = [(module, scope, line) for module, _, scope, line in _uses({"_gram_spectrum"}, _NamedCalls)]
    stray, used = _confined(calls, GRAM_SPECTRUM_CALLERS)
    assert not stray, "_gram_spectrum called outside its callers: " + ", ".join(stray)
    # An entry nothing uses any more must leave the list.
    assert used == GRAM_SPECTRUM_CALLERS


#: What builds a tuple, and the only scopes of ``stable_rank`` allowed to call it:
#: the outputs of ``warfield_forward`` and of ``_hv_pad`` and ``_hv_perturb``, the bodies
#: of ``hv_pad`` and ``hv_perturb``, and ``ReductionCoefficients.apply``, which holds its
#: input entries as one tuple.  ``_bass_reduce`` returns its reduced tuple stacked.  The
#: counting-bound refusal reads the stable rank as a number and builds none.
TUPLE_BUILDERS = {"ModuleTuple", "_tuple_from_stacked", "standard_unimodular_tuple"}
TUPLE_OUTPUTS = {
    ("stable_rank", "ReductionCoefficients.apply"),
    ("stable_rank", "warfield_forward"),
    ("stable_rank", "_hv_pad"),
    ("stable_rank", "_hv_perturb"),
}


def test_stable_rank_builds_tuples_only_for_outputs():
    # The reductions run on stacked forms, one matrix per block; an intermediate
    # tuple, the standard tuple among them, would bring back a wrap per entry
    # and a stacking per use.
    calls = [(module, scope, line) for module, _, scope, line in _uses(TUPLE_BUILDERS, _NamedCalls)
             if module == "stable_rank"]
    stray, used = _confined(calls, TUPLE_OUTPUTS)
    assert not stray, "stable_rank builds a tuple outside its outputs: " + ", ".join(stray)
    # The rule is not vacuous: each output is built, and hv_perturb's once.
    assert used == TUPLE_OUTPUTS
    assert len(_scopes_naming("stable_rank", "_tuple_from_stacked", calls_only=True)["_hv_perturb"]) == 1


def test_hv_perturb_forms_the_gram_sum_once():
    # One Gram sum, on the one stacked form, gives the route, the zero route's verdict
    # and the bump; a second one, or a gram(t) that stacks t again, would decide the
    # same fact again.
    uses = _scopes_naming("stable_rank", "_stacked_pairing")
    assert len(uses["_hv_perturb"]) == 1, f"_hv_perturb names _stacked_pairing at lines {uses['_hv_perturb']}"
    assert "_hv_perturb" not in _scopes_naming("stable_rank", "gram")


#: The steps of a conjugate transpose, in either order, as a method or as a numpy function.
CONJUGATES = {"conj", "conjugate"}
TRANSPOSES = {"T", "mT", "swapaxes", "transpose"}


def _adjoint_base(node):
    """The expression that ``node`` conjugate-transposes, or ``None`` if it is no conjugate transpose."""
    steps = set()
    while True:
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in CONJUGATES | TRANSPOSES:
            steps.add(node.func.attr)
            node = node.args[0] if _owner(node.func.value) == "np" else node.func.value
        elif isinstance(node, ast.Attribute) and node.attr in TRANSPOSES:
            steps.add(node.attr)
            node = node.value
        else:
            return node if steps & CONJUGATES and steps & TRANSPOSES else None


class _AdjointProducts(_NamedUses):
    """Collects whether it multiplies an expression by its own adjoint, scope and line of every
    matrix product ``A* B``, by ``@``, ``matmul`` or ``dot``."""

    def _product(self, node, left, right):
        base = _adjoint_base(left)
        if base is not None:
            self.found.append((ast.dump(base) == ast.dump(right), ".".join(self.scope), node.lineno))

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.MatMult):
            self._product(node, node.left, node.right)
        self.generic_visit(node)

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr in {"matmul", "dot"}:
            self._product(node, *([node.func.value] + node.args)[-2:])
        self.generic_visit(node)

    def visit_Attribute(self, node):
        self.generic_visit(node)

    visit_ImportFrom = visit_Attribute


#: Where a Gram sum ``x* x`` is formed: the entry products ``a* b`` of the pairing, the one per-entry sum,
#: one batched product on one stacked form and one per entry on a stack of trials; and the density
#: bracket's one product per block, which only decides.
ENTRY_PRODUCTS = ("hilbert_module", "_entry_products")
GRAM_SUMS = {ENTRY_PRODUCTS, ("hilbert_module", "_SpaceOps._unimodular_count")}
#: The other products ``A* B``, none a Gram sum: a corner's compressions to its cores and Warfield's
#: telescoping residual ``a* head``.
ADJOINT_PRODUCTS = {("hilbert_module", "CornerSpace._core"), ("hilbert_module", "CornerSpace._compress"),
                    ("stable_rank", "_warfield")}


def test_gram_sums_are_formed_by_the_pairing_and_the_bracket_alone():
    # The density margins once summed their Gram sums in a copy of the pairing, held equal to it
    # only by a test; a third copy would have to be held equal again.
    products = list(_uses(set(), _AdjointProducts))
    stray, used = _confined([(module, scope, line) for module, _, scope, line in products],
                            GRAM_SUMS | ADJOINT_PRODUCTS)
    assert not stray, "a product A* B outside the pairing, the bracket and the listed products: " + ", ".join(stray)
    # The rule is not vacuous: each place forms its products, the pairing two (a form's and a stack's)
    # and the bracket one, and only the bracket spells out X* X.
    assert used == GRAM_SUMS | ADJOINT_PRODUCTS
    places = [(_allowed_scope(module, scope, GRAM_SUMS | ADJOINT_PRODUCTS), own)
              for module, own, scope, _ in products]
    assert sorted(place for place, _ in places if place in GRAM_SUMS) == sorted([ENTRY_PRODUCTS, *GRAM_SUMS])
    assert [place for place, own in places if own] == [CHOLESKY_BRACKET]


#: The one place that hands ``cholesky`` to LAPACK: the density count's bracket.
CHOLESKY_BRACKET = ("hilbert_module", "_SpaceOps._unimodular_count")


class _RoutineRequests(_RoutineNames):
    """Collects only the strings naming a routine in ``names``, the way ``_lapack`` is told one;
    the names themselves are the LAPACK rule's."""

    def visit_Attribute(self, node):
        self.generic_visit(node)

    visit_ImportFrom = visit_Attribute


def test_only_the_density_count_factors_by_cholesky():
    # The bracket decides only that a trial's margin exceeds tol, and falls back to
    # the Gram margins; a Cholesky test elsewhere would be a second unimodularity rule.
    uses = [(module, scope, line) for module, _, scope, line in _uses({"cholesky"}, _RoutineRequests)]
    stray, used = _confined(uses, {CHOLESKY_BRACKET})
    assert not stray, "cholesky handed to LAPACK outside the density count: " + ", ".join(stray)
    # The rule is not vacuous: the bracket does factor, once.
    assert used == {CHOLESKY_BRACKET} and len(uses) == 1


def test_density_verdicts_have_one_route():
    # density_experiment counts through the bracket, which falls back to the margins
    # itself; random_gram_margins in stable_rank would be a second route to a count.
    assert not _scopes_naming("stable_rank", "random_gram_margins")
    assert set(_scopes_naming("stable_rank", "_unimodular_count", calls_only=True)) == {"density_experiment"}
    # The rounding bound decides an obstructed cell before anything is drawn: one closed form
    # per space class, read by density_experiment alone, and the draws are taken only there.
    tree = ast.parse((SRC / "hilbert_module.py").read_text(encoding="utf-8"))
    defined = sorted(cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                     for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "_rounding_bound")
    assert defined == ["CornerSpace", "ModuleSpace"], f"_rounding_bound defined in {defined}"
    reader = ("stable_rank", "density_experiment")
    stray, used = _confined([(module, scope, line) for module, _, scope, line
                             in _uses({"_rounding_bound"}, _NamedCalls)], {reader})
    assert not stray and used == {reader}, "_rounding_bound called outside density_experiment: " + ", ".join(stray)
    assert set(_scopes_naming("stable_rank", "trial_draws", calls_only=True)) == {"density_experiment"}


#: The public pipelines and the private bodies that return each output with its decided margin.
PIPELINE_BODIES = {"bass_reduce": "_bass_reduce", "hv_pad": "_hv_pad", "hv_perturb": "_hv_perturb"}


def test_reports_print_what_the_pipelines_decided():
    # Each public pipeline is one call of its body, which returns the output with the margin
    # that decided it, so the rules above, written for the bodies, cover the public names.
    tree = ast.parse((SRC / "stable_rank.py").read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for public, body in PIPELINE_BODIES.items():
        (statement,) = [n for n in functions[public].body if not isinstance(n, ast.Expr)]
        call = statement.value.value if isinstance(statement, ast.Return) else None
        assert isinstance(call, ast.Call) and _read_names(call.func) == [body], f"{public} is not one call of {body}"
    # The CLI prints the decided tuple and margins: it collapses nothing a second time, and
    # takes a margin of its own only for check, which decides on the margin it prints.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    scopes = {}
    for top in tree.body:
        for n in ast.walk(top):
            for name in _read_names(n):
                scopes.setdefault(name, set()).add(getattr(top, "name", "<module>"))
    assert "warfield_forward" not in scopes, f"cli names warfield_forward in {scopes['warfield_forward']}"
    assert scopes["unimodularity_margin"] == {"_check"}, f"cli names unimodularity_margin in {scopes}"


def _raw_json_reads(tree):
    """Lines of ``tree`` that read a raw JSON value other than through ``_Json``: a parameter
    ``data`` of a ``*from_json*`` reader not handed to ``_Json.of``, a ``_load_json`` value not
    handed to ``_Json`` or a reader, a node's ``value`` subscripted, read by attribute or
    iterated, and ``matrix_from_json`` run other than by ``build``, outside ``_Json`` itself."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reader = {n for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "_Json" for n in ast.walk(c)}

    def callee(node):
        call = parents.get(node)
        return (_read_names(call.func) or [""])[0] if isinstance(call, ast.Call) and node in call.args else ""

    lines = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and "from_json" in fn.name and "data" in {a.arg for a in fn.args.args}:
            lines += [n.lineno for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id == "data"
                      and callee(n) != "of"]
    for node in set(ast.walk(tree)) - reader:
        parent = parents.get(node)
        if isinstance(node, ast.Call) and _read_names(node.func) == ["_load_json"]:
            stray = callee(node) != "_Json" and "from_json" not in callee(node)
        elif isinstance(node, ast.Attribute) and node.attr == "value":
            stray = (isinstance(parent, (ast.Subscript, ast.Attribute)) and parent.value is node
                     or isinstance(parent, (ast.comprehension, ast.For)) and parent.iter is node)
        else:
            stray = isinstance(node, ast.Name) and node.id == "matrix_from_json" and (
                callee(node) != "build" or parent.args[0] is not node)
        lines += [node.lineno] if stray else []
    return sorted(lines)


def test_json_is_read_only_through_the_reader():
    # Nine readers once indexed data[...] each its own way, so a wrong node surfaced as
    # KeyError('space') or a TypeError of Python's, naming no node of the document.
    stray = [f"{path.stem}.py:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _raw_json_reads(ast.parse(path.read_text(encoding="utf-8")))]
    assert not stray, "raw JSON read outside algebra._Json: " + ", ".join(stray)
    # The rule is not vacuous: it finds the reads of the readers it replaced.
    assert _raw_json_reads(ast.parse("def from_json_dict(cls, data):\n    return cls(data['blocks'])\n"
                                     "def run(path):\n    return _load_json(path)[0]\n"
                                     "def entry(m):\n    return matrix_from_json(m.value['rows'])\n")) == [2, 4, 6, 6]


#: The functions of the CLI that may catch ``ValueError``, both before any object is built:
#: ``_positive`` turns an option's conversion error into argparse's usage error, and
#: ``_load_json`` the parser's refusal of a document into the reader's error.
PARSERS = {"_positive", "_load_json"}


def test_the_cli_reads_only_the_readers_error_as_bad_input():
    # A TypeError monkeypatched into the computation once printed "bad input" and exited 2.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    caught = {}
    for top in tree.body:
        for handler in (n for n in ast.walk(top) if isinstance(n, ast.ExceptHandler) and n.type):
            for name in (n for node in ast.walk(handler.type) for n in _read_names(node)):
                caught.setdefault(name, set()).add(getattr(top, "name", "<module>"))
    stray = {name: scopes - PARSERS for name, scopes in caught.items()
             if name in ("KeyError", "TypeError", "ValueError") and scopes - PARSERS}
    assert not stray, f"cli catches built-in errors as input errors: {stray}"
    assert "_run_command" in caught["_InputError"]
