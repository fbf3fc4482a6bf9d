"""Command-line interface: file-driven verification with pass/fail reports.

Inputs are JSON files whose top-level keys name entities (see serialize.py).
Option values accept a file path, ``path:key`` to address one entity in a
bundle, a bare key into an already-loaded file, or the word ``adjoint`` where
a representation is expected.  Exit status is 0 exactly when every check in
the invocation passed.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass

import click

from . import serialize as ser
from .deformation import (
    AltMap,
    _mc_vanishes,
    courant_bracket,
    deformation_check,
    mc_residual,
    random_altmap,
)
from .errors import (
    BoundError,
    NotMaurerCartanError,
    OversizedScalarError,
    SchemaError,
    SearchSpaceError,
    ShapeMismatchError,
    TruncationExceededError,
    UnresolvedReferenceError,
)
from .graded import (
    adjoint_graded,
    check_graded_rep,
    check_sdgla,
    check_sgla,
    from_lie,
)
from .homotopy import (
    _mc_witness,
    check_prelie_infinity,
    check_psi_homomorphism,
    graded_bracket,
    homotopy_oop_residual,
    induce_prelie_infinity,
    is_homotopy_rbo,
    random_sym_family,
)
from .lie import adjoint, check_lie, check_representation, is_rota_baxter, oop_defect, search_rbo
from .prelie import check_phi_homomorphism, check_prelie, induce_prelie, mn_bracket, phi
from .reports import Report, named_residual
from .serialize import Workspace

_ERRORS = (
    BoundError,
    SchemaError,
    UnresolvedReferenceError,
    ShapeMismatchError,
    TruncationExceededError,
    SearchSpaceError,
    NotMaurerCartanError,
    OversizedScalarError,
)


@dataclass
class Config:
    p_max: int
    arity_max: int
    json_report: str | None
    seed: int
    parallel: bool


@click.group()
@click.option("--p-max", default=4, show_default=True, type=click.IntRange(min=0),
              help="Weight bound for truncated homotopy checks.")
@click.option("--arity-max", default=6, show_default=True, type=click.IntRange(min=0),
              help="Arity cap for bracket computations.")
@click.option("--json-report", type=click.Path(dir_okay=False), default=None,
              help="Write the machine-readable report(s) to this file ('-' for stdout).")
@click.option("--seed", default=0, show_default=True,
              help="Seed for the randomized draw modes.")
@click.option("--parallel", is_flag=True,
              help="Partition the Rota-Baxter grid search over worker processes.")
@click.pass_context
def main(ctx, p_max, arity_max, json_report, seed, parallel):
    """Exact verification of Rota-Baxter / O-operator structures."""
    ctx.obj = Config(p_max, arity_max, json_report, seed, parallel)


def _finish(cfg: Config, reports: list[Report]):
    for rep in reports:
        status = "PASS" if rep.ok else "FAIL"
        extra = f" (order={rep.order})" if rep.order is not None else ""
        click.echo(f"{rep.check}: {status}{extra}")
        if not rep.ok and rep.witness:
            click.echo(f"  witness: {json.dumps(rep.witness, sort_keys=True)}")
    if cfg.json_report:
        payload = reports[0].to_dict() if len(reports) == 1 else [r.to_dict() for r in reports]
        text = json.dumps(payload, indent=2, sort_keys=True)
        if cfg.json_report == "-":
            click.echo(text)
        else:
            with open(cfg.json_report, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    sys.exit(0 if all(r.ok for r in reports) else 1)


def _emit(obj, out: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _split_ref(ref: str):
    if os.path.exists(ref):
        return ref, None
    if ":" in ref:
        path, key = ref.rsplit(":", 1)
        if os.path.exists(path):
            return path, key
    return None, ref


def _scope(ws: Workspace, ref: str):
    """The workspace a FILE, FILE:KEY or bare KEY reads from, and the key it
    names (None for a whole FILE).

    Each file is read into its own scope so that two files may both use the
    plain kind name for their single entity; the shared workspace keeps the
    first entity registered under each name for bare-key lookups.
    """
    path, key = _split_ref(ref)
    if path is None:
        if ref not in ws.raw:
            raise UnresolvedReferenceError(f"{ref!r} is neither a file nor a loaded entity")
        return ws, ref
    local = Workspace().load_file(path)
    for name, item in local.raw.items():
        ws.raw.setdefault(name, item)
    return local, key


def _resolve(ws: Workspace, ref: str, kind: str):
    scope, key = _scope(ws, ref)
    return scope.find(kind, key)


def _lie(ws, ref):
    return ser.lie_from_obj(_resolve(ws, ref, "lie_algebra"))


def _rep(ws, ref, alg):
    if ref == "adjoint":
        return adjoint(alg)
    return ser.rep_from_obj(_resolve(ws, ref, "representation"), alg)


def _op(ws, ref, nrows=None, ncols=None):
    return ser.operator_from_obj(_resolve(ws, ref, "operator"), nrows, ncols)


def _operator_or_altmap(ws, ref, alg, rep) -> AltMap:
    """Accept either an operator matrix or a 1-ary altmap where a map V -> g
    is expected, returning the altmap view.  A named entity has its own
    kind; a whole FILE is an altmap when it holds one and no operator."""
    scope, key = _scope(ws, ref)
    if key is None:
        kinds = {k for (k, _) in scope.raw.values()}
        is_altmap = "altmap" in kinds and "operator" not in kinds
    else:
        is_altmap = key in scope.raw and scope.raw[key][0] == "altmap"
    if is_altmap:
        return ser.altmap_from_obj(scope.find("altmap", key), rep.space_dim, alg.basis)
    op = ser.operator_from_obj(scope.find("operator", key), alg.dim, rep.space_dim)
    return AltMap.from_operator(op)


def _sgla(ws, ref):
    scope, key = _scope(ws, ref)
    payload = scope.find("sgla", key)
    try:
        default_space = ser.gvs_from_obj(scope.find("graded_space"))
    except UnresolvedReferenceError:
        default_space = None
    return ser.sgla_from_obj(payload, default_space)


def _grep(ws, ref, galg):
    if ref == "adjoint":
        return adjoint_graded(galg)
    return ser.grep_from_obj(_resolve(ws, ref, "graded_rep"), galg)


def _hop(ws, ref, space, target):
    return ser.hop_from_obj(_resolve(ws, ref, "homotopy_operator"), space, target)


def _sym_family(ws, ref, space, target):
    return ser.sym_family_from_obj(_resolve(ws, ref, "sym_family"), space, target)


def _hooked(ws, ref):
    return ser.hooked_from_obj(_resolve(ws, ref, "hooked_map"))


def _altmap_report(name, f: AltMap, cod_names, order=None) -> Report:
    if f.is_zero():
        return Report(name, True, order=order)
    key = sorted(f.entries)[0]
    return Report(name, False, order=order,
                  witness={"at": [i + 1 for i in key],
                           "residual": ser.value_obj(f.entries[key], cod_names)})


def _weight_witness(weight, word, value, space, target) -> dict:
    return {"weight": weight, "at": [space.basis[i] for i in word],
            "residual": named_residual(value, target.basis)}


def _residual_report(name, residuals, space, target, order) -> Report:
    for p in sorted(residuals):
        comp = residuals[p]
        if comp.is_zero():
            continue
        word = sorted(comp.entries)[0]
        return Report(name, False, order=order,
                      witness=_weight_witness(p, word, comp.entries[word], space, target))
    return Report(name, True, order=order)


def command(fn):
    """Convert package errors into CLI errors with a nonzero exit."""
    from functools import wraps

    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except _ERRORS as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


# -- ungraded checks ----------------------------------------------------------

@main.command("check-lie")
@click.option("--algebra", required=True)
@click.pass_obj
@command
def check_lie_cmd(cfg, algebra):
    """Verify antisymmetry and the Jacobi identity."""
    ws = Workspace()
    _finish(cfg, [check_lie(_lie(ws, algebra))])


@main.command("check-rep")
@click.option("--algebra", required=True)
@click.option("--rep", "rep_", required=True)
@click.pass_obj
@command
def check_rep_cmd(cfg, algebra, rep_):
    """Verify the representation axiom on all basis pairs."""
    ws = Workspace()
    alg = _lie(ws, algebra)
    _finish(cfg, [check_representation(alg, _rep(ws, rep_, alg))])


@main.command("check-rbo")
@click.option("--algebra", required=True)
@click.option("--op", "op_", required=True)
@click.pass_obj
@command
def check_rbo_cmd(cfg, algebra, op_):
    """Verify the Rota-Baxter identity for an operator g -> g."""
    ws = Workspace()
    alg = _lie(ws, algebra)
    p = _op(ws, op_, alg.dim, alg.dim)
    defect = oop_defect(alg, adjoint(alg), p)
    report = _altmap_report("check-rbo", defect, alg.basis)
    report.details["direct"] = is_rota_baxter(alg, p)
    _finish(cfg, [report])


@main.command("check-oop")
@click.option("--algebra", required=True)
@click.option("--rep", "rep_", required=True)
@click.option("--op", "op_", required=True)
@click.pass_obj
@command
def check_oop_cmd(cfg, algebra, rep_, op_):
    """Verify the relative Rota-Baxter identity for an operator V -> g."""
    ws = Workspace()
    alg = _lie(ws, algebra)
    rep = _rep(ws, rep_, alg)
    t = _op(ws, op_, alg.dim, rep.space_dim)
    _finish(cfg, [_altmap_report("check-oop", oop_defect(alg, rep, t), alg.basis)])


@main.command("bracket")
@click.option("--algebra", required=True)
@click.option("--rep", "rep_", required=True)
@click.option("--left", required=True)
@click.option("--right", required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_obj
@command
def bracket_cmd(cfg, algebra, rep_, left, right, out):
    """Bracket of two alternating maps; emits an altmap."""
    ws = Workspace()
    alg = _lie(ws, algebra)
    rep = _rep(ws, rep_, alg)
    f = _operator_or_altmap(ws, left, alg, rep)
    g = _operator_or_altmap(ws, right, alg, rep)
    result = courant_bracket(f, g, alg, rep, cfg.arity_max)
    _emit({"altmap": ser.altmap_to_obj(result, alg.basis)}, out)


@main.command("mc-check")
@click.option("--algebra", required=True)
@click.option("--rep", "rep_", required=True)
@click.option("--op", "op_", required=True)
@click.pass_obj
@command
def mc_check_cmd(cfg, algebra, rep_, op_):
    """Maurer-Cartan check: half the self-bracket of a 1-ary map."""
    ws = Workspace()
    alg = _lie(ws, algebra)
    rep = _rep(ws, rep_, alg)
    t = _operator_or_altmap(ws, op_, alg, rep)
    _finish(cfg, [_altmap_report("mc-check", mc_residual(t, alg, rep, cfg.arity_max), alg.basis)])


@main.command("deform")
@click.option("--algebra", required=True)
@click.option("--rep", "rep_", required=True)
@click.option("--base", required=True)
@click.option("--delta", required=True)
@click.pass_obj
@command
def deform_cmd(cfg, algebra, rep_, base, delta):
    """Whether base + delta is still an O-operator (twisted Maurer-Cartan)."""
    ws = Workspace()
    alg = _lie(ws, algebra)
    rep = _rep(ws, rep_, alg)
    t = _operator_or_altmap(ws, base, alg, rep)
    tp = _operator_or_altmap(ws, delta, alg, rep)
    if not _mc_vanishes(t, alg, rep, cfg.arity_max):
        raise click.ClickException("the base operator is not an O-operator")
    ok = deformation_check(t, tp, alg, rep, cfg.arity_max)
    _finish(cfg, [Report("deform", ok)])


@main.command("induce-prelie")
@click.option("--algebra", required=True)
@click.option("--rep", "rep_", required=True)
@click.option("--op", "op_", required=True)
@click.option("--force", is_flag=True, help="Skip the O-operator verification.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_obj
@command
def induce_prelie_cmd(cfg, algebra, rep_, op_, force, out):
    """Pre-Lie product u * v = rho(Tu) v of an O-operator; emits a prelie."""
    ws = Workspace()
    alg = _lie(ws, algebra)
    rep = _rep(ws, rep_, alg)
    t = _op(ws, op_, alg.dim, rep.space_dim)
    product = induce_prelie(t, alg, rep, force=force)
    _emit({"prelie": ser.prelie_to_obj(product)}, out)


@main.command("check-prelie")
@click.option("--prelie", "prelie_", required=True)
@click.pass_obj
@command
def check_prelie_cmd(cfg, prelie_):
    """Verify the left-symmetry identity of a bilinear product."""
    ws = Workspace()
    _finish(cfg, [check_prelie(ser.prelie_from_obj(_resolve(ws, prelie_, "prelie")))])


@main.command("mn-bracket")
@click.option("--left", required=True)
@click.option("--right", required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_obj
@command
def mn_bracket_cmd(cfg, left, right, out):
    """Bracket of two hooked maps; emits a hooked_map."""
    ws = Workspace()
    a, names = _hooked(ws, left)
    b, names_b = _hooked(ws, right)
    if names != names_b:
        raise click.ClickException("hooked maps live on different bases")
    result = mn_bracket(a, b, cfg.arity_max)
    _emit({"hooked_map": ser.hooked_to_obj(result, names)}, out)


@main.command("phi")
@click.option("--algebra", required=True)
@click.option("--rep", "rep_", required=True)
@click.option("--map", "map_", required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_obj
@command
def phi_cmd(cfg, algebra, rep_, map_, out):
    """Hooked map rho(f(...))(.) of an alternating map; emits a hooked_map."""
    ws = Workspace()
    alg = _lie(ws, algebra)
    rep = _rep(ws, rep_, alg)
    f = _operator_or_altmap(ws, map_, alg, rep)
    _emit({"hooked_map": ser.hooked_to_obj(phi(f, rep), rep.basis)}, out)


@main.command("check-phi-hom")
@click.option("--algebra", required=True)
@click.option("--rep", "rep_", required=True)
@click.option("--left", default=None)
@click.option("--right", default=None)
@click.option("--draws", default=0, show_default=True,
              help="Check this many random (f, g) pairs instead of given maps.")
@click.pass_obj
@command
def check_phi_hom_cmd(cfg, algebra, rep_, left, right, draws):
    """Verify that the hook construction preserves brackets."""
    ws = Workspace()
    alg = _lie(ws, algebra)
    rep = _rep(ws, rep_, alg)
    if draws:
        rng = random.Random(cfg.seed)
        ok = True
        for _ in range(draws):
            f = random_altmap(rng, rng.randrange(3), rep.space_dim, alg.dim)
            g = random_altmap(rng, rng.randrange(3), rep.space_dim, alg.dim)
            if not check_phi_homomorphism(f, g, alg, rep, cfg.arity_max):
                ok = False
                break
        _finish(cfg, [Report("check-phi-hom", ok, order=cfg.arity_max)])
    if left is None or right is None:
        raise click.ClickException("provide --left and --right, or --draws N")
    f = _operator_or_altmap(ws, left, alg, rep)
    g = _operator_or_altmap(ws, right, alg, rep)
    ok = check_phi_homomorphism(f, g, alg, rep, cfg.arity_max)
    _finish(cfg, [Report("check-phi-hom", ok, order=cfg.arity_max)])


@main.command("search-rbo")
@click.option("--algebra", required=True)
@click.option("--grid", default="-1,0,1", show_default=True,
              help="Comma-separated list of rational entries to try.")
@click.option("--cap", default=2_000_000, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_obj
@command
def search_rbo_cmd(cfg, algebra, grid, cap, out):
    """Exhaustive grid search for Rota-Baxter operators; emits operators."""
    ws = Workspace()
    alg = _lie(ws, algebra)
    entries = [ser.parse_scalar(x.strip()) for x in grid.split(",") if x.strip()]
    processes = os.cpu_count() if cfg.parallel else None
    found = search_rbo(alg, entries, cap=cap, processes=processes)
    click.echo(f"found {len(found)} operators", err=True)
    _emit({"operators": [ser.operator_to_obj(op) for op in found]}, out)


# -- graded checks ------------------------------------------------------------

@main.command("check-sgla")
@click.option("--sgla", "sgla_", required=True)
@click.pass_obj
@command
def check_sgla_cmd(cfg, sgla_):
    """Verify degree bookkeeping, graded symmetry and the Leibniz rule."""
    ws = Workspace()
    _finish(cfg, [check_sgla(_sgla(ws, sgla_))])


@main.command("check-sdgla")
@click.option("--sgla", "sgla_", required=True)
@click.option("--differential", required=True)
@click.pass_obj
@command
def check_sdgla_cmd(cfg, sgla_, differential):
    """Verify a square-zero degree-1 differential compatible with the bracket."""
    ws = Workspace()
    galg = _sgla(ws, sgla_)
    d = ser.differential_from_obj(_resolve(ws, differential, "differential"), galg.dim)
    _finish(cfg, [check_sdgla(galg, d)])


@main.command("check-graded-rep")
@click.option("--sgla", "sgla_", required=True)
@click.option("--grep", "grep_", required=True)
@click.pass_obj
@command
def check_graded_rep_cmd(cfg, sgla_, grep_):
    """Verify a degree-1 action compatible with the graded bracket."""
    ws = Workspace()
    galg = _sgla(ws, sgla_)
    _finish(cfg, [check_graded_rep(galg, _grep(ws, grep_, galg))])


@main.command("from-lie")
@click.option("--algebra", required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_obj
@command
def from_lie_cmd(cfg, algebra, out):
    """Embed an ungraded Lie algebra in degree -1; emits an sgla."""
    ws = Workspace()
    galg = from_lie(_lie(ws, algebra))
    _emit({"sgla": ser.sgla_to_obj(galg)}, out)


# -- homotopy checks ----------------------------------------------------------

def _graded_context(ws, sgla_, grep_):
    galg = _sgla(ws, sgla_)
    grep = _grep(ws, grep_, galg)
    return galg, grep


@main.command("check-hoop")
@click.option("--sgla", "sgla_", required=True)
@click.option("--grep", "grep_", required=True)
@click.option("--hop", required=True)
@click.pass_obj
@command
def check_hoop_cmd(cfg, sgla_, grep_, hop):
    """Verify the generalized Rota-Baxter identities up to the weight bound."""
    ws = Workspace()
    galg, grep = _graded_context(ws, sgla_, grep_)
    t = _hop(ws, hop, grep.space, galg.space)
    res = homotopy_oop_residual(t, galg, grep, cfg.p_max)
    _finish(cfg, [_residual_report("check-hoop", res, grep.space, galg.space, cfg.p_max)])


@main.command("check-hrbo")
@click.option("--sgla", "sgla_", required=True)
@click.option("--hop", required=True)
@click.pass_obj
@command
def check_hrbo_cmd(cfg, sgla_, hop):
    """Homotopy Rota-Baxter check (the adjoint action)."""
    ws = Workspace()
    galg = _sgla(ws, sgla_)
    t = _hop(ws, hop, galg.space, galg.space)
    res = homotopy_oop_residual(t, galg, adjoint_graded(galg), cfg.p_max)
    report = _residual_report("check-hrbo", res, galg.space, galg.space, cfg.p_max)
    report.details["early_exit"] = is_homotopy_rbo(t, galg, cfg.p_max)
    _finish(cfg, [report])


@main.command("graded-bracket")
@click.option("--sgla", "sgla_", required=True)
@click.option("--grep", "grep_", required=True)
@click.option("--left", required=True)
@click.option("--right", required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_obj
@command
def graded_bracket_cmd(cfg, sgla_, grep_, left, right, out):
    """Graded bracket of two families; emits a sym_family."""
    ws = Workspace()
    galg, grep = _graded_context(ws, sgla_, grep_)
    f = _sym_family(ws, left, grep.space, galg.space)
    g = _sym_family(ws, right, grep.space, galg.space)
    result = graded_bracket(f, g, galg, grep, cfg.p_max)
    _emit({"sym_family": ser.sym_family_to_obj(result)}, out)


@main.command("mc-check-homotopy")
@click.option("--sgla", "sgla_", required=True)
@click.option("--grep", "grep_", required=True)
@click.option("--hop", required=True)
@click.pass_obj
@command
def mc_check_homotopy_cmd(cfg, sgla_, grep_, hop):
    """Maurer-Cartan check of a degree-0 family up to the weight bound."""
    ws = Workspace()
    galg, grep = _graded_context(ws, sgla_, grep_)
    t = _hop(ws, hop, grep.space, galg.space)
    found = _mc_witness(t, galg, grep, cfg.p_max)
    witness = None if found is None else _weight_witness(*found, grep.space, galg.space)
    _finish(cfg, [Report("mc-check-homotopy", found is None, order=cfg.p_max,
                         witness=witness)])


@main.command("induce-prelie-inf")
@click.option("--sgla", "sgla_", required=True)
@click.option("--grep", "grep_", required=True)
@click.option("--hop", required=True)
@click.option("--force", is_flag=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_obj
@command
def induce_prelie_inf_cmd(cfg, sgla_, grep_, hop, force, out):
    """Operations rho(T_{k-1}(...)) of a homotopy operator; emits prelie_infinity."""
    ws = Workspace()
    galg, grep = _graded_context(ws, sgla_, grep_)
    t = _hop(ws, hop, grep.space, galg.space)
    p = induce_prelie_infinity(t, galg, grep, cfg.p_max, force=force)
    _emit({"prelie_infinity": ser.prelie_inf_to_obj(p)}, out)


@main.command("check-prelie-inf")
@click.option("--pinf", required=True)
@click.option("--n-max", default=4, show_default=True, type=click.IntRange(min=1))
@click.pass_obj
@command
def check_prelie_inf_cmd(cfg, pinf, n_max):
    """Verify the coherence identities of a homotopy pre-Lie structure."""
    ws = Workspace()
    p = ser.prelie_inf_from_obj(_resolve(ws, pinf, "prelie_infinity"))
    _finish(cfg, [check_prelie_infinity(p, n_max)])


@main.command("check-psi-hom")
@click.option("--sgla", "sgla_", required=True)
@click.option("--grep", "grep_", required=True)
@click.option("--left", default=None)
@click.option("--right", default=None)
@click.option("--draws", default=0, show_default=True)
@click.pass_obj
@command
def check_psi_hom_cmd(cfg, sgla_, grep_, left, right, draws):
    """Verify that the action hook preserves graded brackets."""
    ws = Workspace()
    galg, grep = _graded_context(ws, sgla_, grep_)
    if draws:
        rng = random.Random(cfg.seed)
        ok = True
        for _ in range(draws):
            f = random_sym_family(rng, grep.space, galg.space, rng.choice([-1, 0, 1]), 2)
            g = random_sym_family(rng, grep.space, galg.space, rng.choice([-1, 0, 1]), 2)
            if not check_psi_homomorphism(f, g, galg, grep, cfg.p_max):
                ok = False
                break
        _finish(cfg, [Report("check-psi-hom", ok, order=cfg.p_max)])
    if left is None or right is None:
        raise click.ClickException("provide --left and --right, or --draws N")
    f = _sym_family(ws, left, grep.space, galg.space)
    g = _sym_family(ws, right, grep.space, galg.space)
    ok = check_psi_homomorphism(f, g, galg, grep, cfg.p_max)
    _finish(cfg, [Report("check-psi-hom", ok, order=cfg.p_max)])


if __name__ == "__main__":
    main()
