"""Command-line interface: file-driven verification with pass/fail reports.

Inputs are JSON files whose top-level keys name entities.  Option values are
references that ``serialize.Workspace`` resolves (a file path, ``path:key``
for one entity of a bundle, or a bare key into an already-loaded file), or the
word ``adjoint`` where a representation is expected.  Exit status is 0
exactly when every check in the invocation passed.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, field

import click

from . import serialize as ser
from .deformation import AltMap, _mc_walk, _twisted_walk, courant_bracket
from .errors import RotabaxterError, UnresolvedReferenceError
from .graded import (
    adjoint_graded,
    check_graded_rep,
    check_sdgla,
    check_sgla,
    elementary_pairs,
    from_lie,
    ungraded_space,
)
from .homotopy import (
    DEFAULT_P_MAX,
    GradedSymFamily,
    GradedSymMap,
    _mc_witness,
    _psi_witness,
    _residual_witness,
    check_prelie_infinity,
    graded_bracket,
    induce_prelie_infinity,
)
from .lie import SEARCH_CAP, _oop_walk, adjoint, check_lie, check_representation, search_rbo
from .prelie import _phi_witness, check_prelie, induce_prelie, mn_bracket, phi
from .reports import Report, named_residual
from .serialize import Workspace

@dataclass
class Config:
    """One invocation's options, and the workspace its files are read into:
    a fresh one for every call of :func:`main`."""
    p_max: int
    json_report: str | None
    ws: Workspace = field(default_factory=Workspace)


def _show_help(ctx: click.Context, param: click.Parameter, value: bool) -> None:
    """The help option's callback: click's own, with the stream named (see
    :func:`_finish` on why every echo names its stream)."""
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), file=sys.stdout, color=ctx.color)
        ctx.exit()


class _HelpToStdout:
    """A command whose ``--help`` echoes to the named ``sys.stdout``."""

    def get_help_option(self, ctx: click.Context) -> click.Option | None:
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show_help
        return option


class _Command(_HelpToStdout, click.Command):
    """Every subcommand's class: the one place where a package error becomes
    a one-line ``Error:`` message with exit status 1, and where a half-given
    --left/--right pair is a usage error before any file is read."""

    def invoke(self, ctx: click.Context):
        left, right = ctx.params.get("left"), ctx.params.get("right")
        if (left is None) != (right is None):
            raise click.UsageError(f"Missing option '--{'right' if right is None else 'left'}': "
                                   "give --left and --right, or neither to sweep the basis pairs",
                                   ctx)
        try:
            return super().invoke(ctx)
        except RotabaxterError as exc:
            raise click.ClickException(str(exc)) from exc


class _Group(_HelpToStdout, click.Group):
    command_class = _Command

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        # click's own no-arguments help echoes with no stream named (see
        # :func:`_finish`); the same text, stream and status
        if not args and self.no_args_is_help and not ctx.resilient_parsing:
            click.echo(ctx.get_help(), file=sys.stderr, color=ctx.color)
            ctx.exit(2)
        return super().parse_args(ctx, args)


@click.group(cls=_Group)
@click.option("--p-max", default=DEFAULT_P_MAX, show_default=True, type=click.IntRange(min=0),
              help="Weight bound for truncated homotopy checks.")
@click.option("--json-report", type=click.Path(dir_okay=False), default=None,
              help="Write the machine-readable report to this file ('-' for stdout).")
@click.pass_context
def main(ctx, p_max, json_report):
    """Exact verification of Rota-Baxter / O-operator structures."""
    ctx.obj = Config(p_max, json_report)


# Every echo names the stream it writes to.  A bare ``click.echo`` caches the
# current ``sys.stdout`` in click's stream table with the stream itself as the
# value, so the entry is never freed and each redirected stream of an
# in-process call would stay alive until exit.  Every text is ASCII (it comes
# from ``json.dumps``), so click's encoding wrapper has nothing to change.
def _finish(cfg: Config, rep: Report):
    status = "PASS" if rep.ok else "FAIL"
    extra = f" (order={rep.order})" if rep.order is not None else ""
    click.echo(f"{rep.check}: {status}{extra}", file=sys.stdout)
    if not rep.ok and rep.witness:
        click.echo(f"  witness: {json.dumps(rep.witness, sort_keys=True)}", file=sys.stdout)
    if cfg.json_report:
        _emit(rep.to_dict(), None if cfg.json_report == "-" else cfg.json_report)
    sys.exit(0 if rep.ok else 1)


def _emit(obj, out: str | None):
    """Write ``obj`` as indented JSON to the file ``out``, or to stdout."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text, file=sys.stdout)


def _map(ws: Workspace, ref, alg, rep, operator=False):
    """The map T: V -> g that ``ref`` names, from an operator or an altmap:
    a LinearOperator with ``operator`` (an altmap must then be 1-ary), else
    an AltMap of any arity.  A named entity has its own kind; a whole FILE is
    read as its operator, or as its altmap when it holds no operator."""
    scope, key = ws.scope(ref)
    if scope.kind(key, ("operator", "altmap")) == "altmap":
        f = ser.altmap_from_obj(scope.find("altmap", key), rep.space_dim, alg.basis)
        return f.to_operator() if operator else f
    op = ser.operator_from_obj(scope.find("operator", key), alg.dim, rep.space_dim)
    return op if operator else AltMap.from_operator(op)


def _sgla(ws: Workspace, ref):
    """An SGLA; one that embeds no space takes its file's graded_space."""
    scope, key = ws.scope(ref)
    payload = scope.find("sgla", key)
    try:
        default_space = ser.gvs_from_obj(scope.find("graded_space"))
    except UnresolvedReferenceError:
        default_space = None
    return ser.sgla_from_obj(payload, default_space)


def _inputs(read, *options):
    """A decorator declaring the required options of a command's inputs (each
    an option and its parameter name) ahead of the command's own options, and
    calling the command with the config and what ``read`` makes of their
    references: the input pair, or the one input."""
    def decorate(command):
        @click.pass_obj
        @functools.wraps(command)
        def run(cfg, **kwargs):
            refs = [kwargs.pop(name) for _, name in options]
            return command(cfg, *read(cfg.ws, *refs), **kwargs)
        for option in reversed(options):
            run = click.option(*option, required=True)(run)
        return run
    return decorate


def _lie_rep(ws, algebra, rep_):
    alg = ws.read(algebra, "lie_algebra")
    if rep_ == "adjoint":
        return alg, adjoint(alg)
    return alg, ws.read(rep_, "representation", alg)


def _sgla_grep(ws, sgla_, grep_):
    galg = _sgla(ws, sgla_)
    if grep_ == "adjoint":
        return galg, adjoint_graded(galg)
    return galg, ws.read(grep_, "graded_rep", galg)


# a Lie algebra, alone or with a representation of it, the setting of O-operators
_on_algebra = _inputs(lambda ws, ref: (ws.read(ref, "lie_algebra"),), ("--algebra", "algebra"))
_on_rep = _inputs(_lie_rep, ("--algebra", "algebra"), ("--rep", "rep_"))
# an SGLA, alone or with a graded representation, the setting of homotopy O-operators
_on_sgla = _inputs(lambda ws, ref: (_sgla(ws, ref),), ("--sgla", "sgla_"))
_on_grep = _inputs(_sgla_grep, ("--sgla", "sgla_"), ("--grep", "grep_"))


def _altmap_witness(word, value, cod_names) -> dict:
    return {"at": [i + 1 for i in word], "residual": named_residual(value, cod_names)}


def _altmap_report(name, found, cod_names) -> Report:
    """The report of a walked check from the first nonzero (weight, word,
    value) of its walk, None for a PASS."""
    if found is None:
        return Report(name, True)
    _, word, value = found
    return Report(name, False, witness=_altmap_witness(word, value, cod_names))


def _weight_witness(weight, word, value, space, target) -> dict:
    return {"weight": weight, "at": [space.basis[i] for i in word],
            "residual": named_residual(value, target.basis)}


def _weight_report(name, found, space, target, order) -> Report:
    if found is None:
        return Report(name, True, order=order)
    return Report(name, False, order=order, witness=_weight_witness(*found, space, target))


def _given_or_sweep(left, right, read, check, sweep, file_form):
    """The witness of ``check`` on the given --left/--right pair, each map
    ``read`` from its reference; with neither given, the witness of the first
    pair of ``sweep()`` whose check fails, naming the pair in file form as
    "left" and "right" to replay it.  None when every check passes.  A
    half-given pair is refused before the inputs are read (:class:`_Command`)."""
    if left is not None:
        return check(read(left), read(right))
    for f, g in sweep():
        witness = check(f, g)
        if witness is not None:
            return {"left": file_form(f), "right": file_form(g), **witness}
    return None


# -- ungraded checks ----------------------------------------------------------

@main.command("check-lie")
@_on_algebra
def check_lie_cmd(cfg, alg):
    """Verify antisymmetry and the Jacobi identity."""
    _finish(cfg, check_lie(alg))


@main.command("check-rep")
@_on_rep
def check_rep_cmd(cfg, alg, rep):
    """Verify the representation axiom on all basis pairs."""
    _finish(cfg, check_representation(alg, rep))


@main.command("check-rbo")
@_on_algebra
@click.option("--op", "op_", required=True)
def check_rbo_cmd(cfg, alg, op_):
    """Verify the Rota-Baxter identity for an operator g -> g."""
    adj = adjoint(alg)
    p = _map(cfg.ws, op_, alg, adj, operator=True)
    found = _oop_walk(alg, adj, p).first()
    _finish(cfg, _altmap_report("check-rbo", found, alg.basis))


@main.command("check-oop")
@_on_rep
@click.option("--op", "op_", required=True)
def check_oop_cmd(cfg, alg, rep, op_):
    """Verify the relative Rota-Baxter identity for an operator V -> g."""
    t = _map(cfg.ws, op_, alg, rep, operator=True)
    _finish(cfg, _altmap_report("check-oop", _oop_walk(alg, rep, t).first(), alg.basis))


@main.command("bracket")
@_on_rep
@click.option("--left", required=True)
@click.option("--right", required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def bracket_cmd(cfg, alg, rep, left, right, out):
    """Bracket of two alternating maps; emits an altmap."""
    f = _map(cfg.ws, left, alg, rep)
    g = _map(cfg.ws, right, alg, rep)
    result = courant_bracket(f, g, alg, rep)
    _emit({"altmap": ser.altmap_to_obj(result, alg.basis)}, out)


@main.command("mc-check")
@_on_rep
@click.option("--op", "op_", required=True)
def mc_check_cmd(cfg, alg, rep, op_):
    """Maurer-Cartan check: half the self-bracket of a 1-ary map."""
    t = _map(cfg.ws, op_, alg, rep)
    _finish(cfg, _altmap_report("mc-check", _mc_walk(t, alg, rep).first(2), alg.basis))


@main.command("deform")
@_on_rep
@click.option("--base", required=True)
@click.option("--delta", required=True)
def deform_cmd(cfg, alg, rep, base, delta):
    """Whether base + delta is still an O-operator (twisted Maurer-Cartan)."""
    t = _map(cfg.ws, base, alg, rep)
    tp = _map(cfg.ws, delta, alg, rep)
    if not _mc_walk(t, alg, rep).vanishes():
        raise click.ClickException("the base operator is not an O-operator")
    _finish(cfg, _altmap_report("deform", _twisted_walk(t, tp, alg, rep).first(), alg.basis))


@main.command("induce-prelie")
@_on_rep
@click.option("--op", "op_", required=True)
@click.option("--force", is_flag=True, help="Skip the O-operator verification.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def induce_prelie_cmd(cfg, alg, rep, op_, force, out):
    """Pre-Lie product u * v = rho(Tu) v of an O-operator; emits a prelie."""
    t = _map(cfg.ws, op_, alg, rep, operator=True)
    product = induce_prelie(t, alg, rep, force=force)
    _emit({"prelie": ser.prelie_to_obj(product)}, out)


@main.command("check-prelie")
@click.option("--prelie", "prelie_", required=True)
@click.pass_obj
def check_prelie_cmd(cfg, prelie_):
    """Verify the left-symmetry identity of a bilinear product."""
    _finish(cfg, check_prelie(cfg.ws.read(prelie_, "prelie")))


@main.command("mn-bracket")
@click.option("--left", required=True)
@click.option("--right", required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.pass_obj
def mn_bracket_cmd(cfg, left, right, out):
    """Bracket of two hooked maps; emits a hooked_map."""
    a, names = cfg.ws.read(left, "hooked_map")
    b, names_b = cfg.ws.read(right, "hooked_map")
    if names != names_b:
        raise click.ClickException("hooked maps live on different bases")
    result = mn_bracket(a, b)
    _emit({"hooked_map": ser.hooked_to_obj(result, names)}, out)


@main.command("phi")
@_on_rep
@click.option("--map", "map_", required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def phi_cmd(cfg, alg, rep, map_, out):
    """Hooked map rho(f(...))(.) of an alternating map; emits a hooked_map."""
    f = _map(cfg.ws, map_, alg, rep)
    _emit({"hooked_map": ser.hooked_to_obj(phi(f, rep), rep.basis)}, out)


@main.command("check-phi-hom")
@_on_rep
@click.option("--left", default=None)
@click.option("--right", default=None)
def check_phi_hom_cmd(cfg, alg, rep, left, right):
    """Verify that the hook construction preserves brackets: on the given
    pair, or on every pair of basis maps, which decides the whole complex."""
    dim = rep.space_dim

    def check(f, g):
        found = _phi_witness(f, g, alg, rep)
        if found is not None:
            arity, (word, last), value = found
            return {**_altmap_witness(word, value, rep.basis), "arity": arity, "last": last + 1}

    witness = _given_or_sweep(
        left, right, lambda ref: _map(cfg.ws, ref, alg, rep), check,
        lambda: elementary_pairs(ungraded_space(dim), ungraded_space(alg.dim), dim, lambda s: s,
                                 lambda w, _, entries: AltMap(w, dim, alg.dim, entries)),
        lambda f: {"altmap": ser.altmap_to_obj(f, alg.basis)})
    _finish(cfg, Report("check-phi-hom", witness is None, witness=witness))


@main.command("search-rbo")
@_on_algebra
@click.option("--grid", default="-1,0,1", show_default=True,
              help="Comma-separated list of rational entries to try.")
@click.option("--cap", default=SEARCH_CAP, show_default=True, type=click.IntRange(min=0))
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def search_rbo_cmd(cfg, alg, grid, cap, out):
    """Exhaustive grid search for Rota-Baxter operators; emits operators."""
    entries = [ser.parse_scalar(x.strip()) for x in grid.split(",") if x.strip()]
    if not entries:
        raise click.BadParameter("the grid needs at least one entry", param_hint="'--grid'")
    found = search_rbo(alg, entries, cap=cap)
    click.echo(f"found {len(found)} operators", file=sys.stderr)
    _emit({"operators": [ser.operator_to_obj(op) for op in found]}, out)


# -- graded checks ------------------------------------------------------------

@main.command("check-sgla")
@_on_sgla
def check_sgla_cmd(cfg, galg):
    """Verify degree bookkeeping, graded symmetry and the Leibniz rule."""
    _finish(cfg, check_sgla(galg))


@main.command("check-sdgla")
@_on_sgla
@click.option("--differential", required=True)
def check_sdgla_cmd(cfg, galg, differential):
    """Verify a square-zero degree-1 differential compatible with the bracket."""
    d = cfg.ws.read(differential, "differential", galg.dim)
    _finish(cfg, check_sdgla(galg, d))


@main.command("check-graded-rep")
@_on_grep
def check_graded_rep_cmd(cfg, galg, grep):
    """Verify a degree-1 action compatible with the graded bracket."""
    _finish(cfg, check_graded_rep(galg, grep))


@main.command("from-lie")
@_on_algebra
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def from_lie_cmd(cfg, alg, out):
    """Embed an ungraded Lie algebra in degree -1; emits an sgla."""
    galg = from_lie(alg)
    _emit({"sgla": ser.sgla_to_obj(galg)}, out)


# -- homotopy checks ----------------------------------------------------------

@main.command("check-hoop")
@_on_grep
@click.option("--hop", required=True)
def check_hoop_cmd(cfg, galg, grep, hop):
    """Verify the generalized Rota-Baxter identities up to the weight bound."""
    t = cfg.ws.read(hop, "homotopy_operator", grep.space, galg.space)
    found = _residual_witness(t, galg, grep, cfg.p_max)
    _finish(cfg, _weight_report("check-hoop", found, grep.space, galg.space, cfg.p_max))


@main.command("check-hrbo")
@_on_sgla
@click.option("--hop", required=True)
def check_hrbo_cmd(cfg, galg, hop):
    """Homotopy Rota-Baxter check (the adjoint action)."""
    t = cfg.ws.read(hop, "homotopy_operator", galg.space, galg.space)
    found = _residual_witness(t, galg, adjoint_graded(galg), cfg.p_max)
    _finish(cfg, _weight_report("check-hrbo", found, galg.space, galg.space, cfg.p_max))


@main.command("graded-bracket")
@_on_grep
@click.option("--left", required=True)
@click.option("--right", required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def graded_bracket_cmd(cfg, galg, grep, left, right, out):
    """Graded bracket of two families; emits a sym_family."""
    f = cfg.ws.read(left, "sym_family", grep.space, galg.space)
    g = cfg.ws.read(right, "sym_family", grep.space, galg.space)
    result = graded_bracket(f, g, galg, grep, cfg.p_max)
    _emit({"sym_family": ser.sym_family_to_obj(result)}, out)


@main.command("mc-check-homotopy")
@_on_grep
@click.option("--hop", required=True)
def mc_check_homotopy_cmd(cfg, galg, grep, hop):
    """Maurer-Cartan check of a degree-0 family up to the weight bound."""
    t = cfg.ws.read(hop, "homotopy_operator", grep.space, galg.space)
    found = _mc_witness(t, galg, grep, cfg.p_max)
    _finish(cfg, _weight_report("mc-check-homotopy", found, grep.space, galg.space, cfg.p_max))


@main.command("induce-prelie-inf")
@_on_grep
@click.option("--hop", required=True)
@click.option("--force", is_flag=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def induce_prelie_inf_cmd(cfg, galg, grep, hop, force, out):
    """Operations rho(T_{k-1}(...)) of a homotopy operator; emits prelie_infinity."""
    t = cfg.ws.read(hop, "homotopy_operator", grep.space, galg.space)
    p = induce_prelie_infinity(t, galg, grep, cfg.p_max, force=force)
    _emit({"prelie_infinity": ser.prelie_inf_to_obj(p)}, out)


@main.command("check-prelie-inf")
@click.option("--pinf", required=True)
@click.option("--n-max", default=DEFAULT_P_MAX, show_default=True, type=click.IntRange(min=1))
@click.pass_obj
def check_prelie_inf_cmd(cfg, pinf, n_max):
    """Verify the coherence identities of a homotopy pre-Lie structure."""
    p = cfg.ws.read(pinf, "prelie_infinity")
    _finish(cfg, check_prelie_infinity(p, n_max))


@main.command("check-psi-hom")
@_on_grep
@click.option("--left", default=None)
@click.option("--right", default=None)
def check_psi_hom_cmd(cfg, galg, grep, left, right):
    """Verify that the action hook preserves graded brackets: on the given
    pair, or on every pair of basis families, which decides it up to p_max."""
    space, target = grep.space, galg.space

    def check(f, g):
        found = _psi_witness(f, g, galg, grep, cfg.p_max)
        if found is not None:
            weight, word, last, value = found
            return {**_weight_witness(weight, word, value, space, space), "last": space.basis[last]}

    witness = _given_or_sweep(
        left, right, lambda ref: cfg.ws.read(ref, "sym_family", space, target), check,
        lambda: elementary_pairs(
            space, target, cfg.p_max, lambda s: cfg.p_max,
            lambda w, degree, entries: GradedSymFamily(
                space, target, degree, {w: GradedSymMap(space, target, w, degree, entries)})),
        lambda f: {"sym_family": ser.sym_family_to_obj(f)})
    _finish(cfg, Report("check-psi-hom", witness is None, order=cfg.p_max, witness=witness))


if __name__ == "__main__":
    main()
