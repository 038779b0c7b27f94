"""Command-line front end: feasibility reports, gate analysis, Monte Carlo runs.

Subcommands: feasibility, gate, mc, sweep, catalog.  The first argument
without a leading "-" gets its parser; the other commands are choices and
help lines.  Verdicts are data, not exit codes: 0 means the analysis
completed (feasible or not), 2 means bad input, 1 an internal failure.
Each output is written from the record that holds its data: CSV rows from
McResults, feasibility.json from the resolved inputs and the FeasibilityReport,
and a manifest's parameters from the McConfig (plus workers, and a sweep's axis
and values) or those same inputs; _json_text writes every record as its fields.
With a fixed seed the primary output files are byte-identical across runs and
worker counts; manifests are not.  Only mc and sweep load numpy, when they run,
and no command runs the dense core or dephasing code.  No command imports csv,
and only JSON output loads json (its encoder's string quoting).  Likewise
platform, traceback, configparser (in budget.load_specs), budget and noise (and
through them dataclasses) are imported only in the code that uses them:
--version, --help and the feasibility, gate and catalog help load none of them,
and a text catalog none of the first three.
"""

import argparse
import math
import os
import re
import sys
import time

from . import __version__

CATALOG_ENV_VAR = "EXCHSIM_CATALOG"
DEFAULT_EPSILON = 1e-5
DEFAULT_OUT_DIR = "exchsim_out"
# argparse's negative-number pattern (^-\d+$|^-\d*\.\d+$) widened to what float() reads
# (an exponent; inf, infinity and nan in any case) and to a comma list whose first entry
# is negative, so that "--dt -2e-5", "--t2 -inf" and "--values -1e-3,1e-3" read as the
# flag's value, as "--dt=-2e-5", "--t2=-inf" and "--values=-1e-3,1e-3" do, not as an
# option.  Each entry follows the leading "-" or a comma; an empty one is read as sweep
# reads it.  One entry pattern, not two, keeps the import-time compile as short as before.
_NEGATIVE_NUMBER = re.compile(
    r"^(?:(?:^-|,[-+]?)(?:\d*\.?\d+(?:[eE][-+]?\d+)?|(?i:inf|infinity|nan))?)+$")


def _fmt(x):
    """Scientific notation with full double precision, for stable file output."""
    return f"{float(x):.17e}"


def _write_file(path, text):
    """Write text to path as UTF-8, in place: os.write, which may take fewer bytes than
    it is given, is called until every byte is written from the start, and the file is
    then cut to the new length, never truncated to zero first.  On ext4 (auto_da_alloc),
    a rewrite after a truncation to zero is flushed to disk on close, which costs more
    than computing most outputs.  A new file gets open()'s mode, 0o666 less the umask."""
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)  # no O_TRUNC
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _json_text(value):
    """value as json.dumps(value, indent=2, sort_keys=True) + "\n" writes it, byte for
    byte, with a record as its fields, a tuple as a list, and inf, -inf and nan as the
    strings 'inf', '-inf' and 'nan'.  Keys must be str; any other type raises TypeError."""
    from json.encoder import encode_basestring_ascii as quote  # json's string quoting only

    def text(value, newline):
        if isinstance(value, str):
            return quote(value)
        if isinstance(value, float):
            return float.__repr__(value) if math.isfinite(value) else f'"{float.__repr__(value)}"'
        if value is None or isinstance(value, int):  # True and False before other ints
            return ("null" if value is None else "true" if value is True
                    else "false" if value is False else int.__repr__(value))
        inner = newline + "  "
        if isinstance(value, dict):
            items = [f"{quote(key)}: {text(value[key], inner)}" for key in sorted(value)]
            return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
        if isinstance(value, (list, tuple)):
            items = [text(item, inner) for item in value]
            return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
        # a record as its fields; quote raises TypeError for any other type
        return (text(vars(value), newline) if hasattr(value, "__dataclass_fields__")
                else quote(value))

    return text(value, "\n") + "\n"


def _write_manifest(out_dir, command, parameters, seed, outputs, started, **extra):
    _write_file(os.path.join(out_dir, f"{command}_manifest.json"), _json_text({
        "command": command,
        "version": __version__,
        "seed": seed,
        "parameters": parameters,
        "outputs": sorted(outputs),
        "duration_seconds": time.monotonic() - started,
        **extra,
    }))


def _load_spec_file(path):
    from . import budget

    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"spec file {path} is not UTF-8: {exc}") from None
    try:
        return budget.load_specs(text, source=path)
    except budget.SpecFileError as exc:  # load_specs parses text: name the file at fault
        raise budget.SpecFileError(f"spec file {path}: {exc}") from None


def _user_technologies(file_arg):
    """Technologies from the env-var catalog plus an optional --file."""
    paths = (os.environ.get(CATALOG_ENV_VAR), file_arg)
    return [tech for path in paths if path for tech in _load_spec_file(path).technologies]


def _matrix_lines(u):
    return ["  " + "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row) for row in u]


# ---------------------------------------------------------------------------
# feasibility


def _resolve_platform(args, loaded):
    from . import budget

    if args.t2 is not None or args.sensitivity is not None:
        if args.t2 is None or args.sensitivity is None:
            raise ValueError("--t2 and --sensitivity must be given together")
        if args.platform is not None:
            raise ValueError("give either --platform or --t2/--sensitivity, not both")
        return budget.PlatformSpec(t2_s=args.t2, sensitivity=args.sensitivity), "custom"
    if args.platform is not None:
        platforms = budget.builtin_platforms()
        if args.platform not in platforms:
            raise ValueError(
                f"unknown platform {args.platform!r}; builtins: {sorted(platforms)}"
            )
        return platforms[args.platform], args.platform
    if loaded.platform is not None:
        return loaded.platform, "spec-file"
    return budget.SI_SPIN, "si-spin"  # default platform, echoed in the report


def _resolve_technology(args, loaded):
    from . import budget

    if args.sigma_a is not None or args.sigma_t is not None:
        if args.sigma_a is None or args.sigma_t is None:
            raise ValueError("--sigma-a and --sigma-t must be given together")
        if args.tech is not None:
            raise ValueError("give either --tech or --sigma-a/--sigma-t, not both")
        return budget.TechnologySpec(
            name="custom",
            sigma_a=args.sigma_a,
            sigma_t_s=args.sigma_t,
            bw_low_hz=0.0 if args.bw_low is None else args.bw_low,
            bw_high_hz=math.inf if args.bw_high is None else args.bw_high,
        )
    if args.bw_low is not None or args.bw_high is not None:
        raise ValueError("--bw-low/--bw-high give the band of a custom technology "
                         "(--sigma-a/--sigma-t), not of --tech or a spec-file technology")
    file_techs = loaded.technologies
    if args.tech is not None:
        catalog = budget.merge_catalog(_user_technologies(None) + list(file_techs))
        for tech in catalog:
            if tech.name == args.tech:
                return tech
        raise ValueError(f"unknown technology {args.tech!r}; try the catalog command")
    if len(file_techs) == 1:
        return file_techs[0]
    if file_techs:
        names = ", ".join(tech.name for tech in file_techs)
        raise ValueError(f"the spec file has {len(file_techs)} technologies ({names}): "
                         "choose one with --tech")
    raise ValueError("no technology given: use --tech, --sigma-a/--sigma-t, or a spec file")


def _resolve_epsilon(args, loaded):
    if args.epsilon is not None:
        return args.epsilon
    if loaded.threshold is not None:
        return loaded.threshold.epsilon
    return DEFAULT_EPSILON


def _feasibility_text(platform, tech, epsilon, report):
    window = (
        f"({_fmt(report.t_window_s[0])}, {_fmt(report.t_window_s[1])}) s"
        if report.t_window_s
        else "empty"
    )
    lines = [
        "feasibility report",
        "==================",
        f"platform:    t2 = {_fmt(platform.t2_s)} s, sensitivity = {_fmt(platform.sensitivity)} (dimensionless)",
        f"technology:  {tech.name}",
        f"  sigma_a (dimensionless): {_fmt(tech.sigma_a)}",
        f"  sigma_t (s):             {_fmt(tech.sigma_t_s)}",
        f"  band (Hz):               [{_fmt(tech.bw_low_hz)}, {_fmt(tech.bw_high_hz)}]",
        f"threshold:   epsilon = {_fmt(epsilon)} (dimensionless)",
        f"verdict:     {'FEASIBLE' if report.feasible else 'INFEASIBLE'}",
        f"gate-time window (s):      {window}",
        f"  t_min (s):               {_fmt(report.t_min_s)}",
        f"  t_max (s):               {_fmt(report.t_max_s)}",
        f"  jitter-only floor (s):   {_fmt(report.jitter_floor_s)}",
        f"limiting constraints:      {', '.join(report.limiting_constraints) or 'none'}",
        "improvement factors (dimensionless):",
    ]
    for name, factor in report.improvement_factors.items():  # in budget.CONSTRAINTS order
        lines.append(f"  {name:<12} {_fmt(factor)}")
    lines += [
        f"required bandwidth at t_max (Hz): {_fmt(report.required_bandwidth_hz)}",
        f"required bandwidth at t_min (Hz): {_fmt(report.required_bandwidth_at_t_min_hz)}",
        f"technology band sufficient:       {'yes' if report.bandwidth_ok else 'no'}",
    ]
    return "\n".join(lines) + "\n"


def cmd_feasibility(args):
    from . import budget

    started = time.monotonic()
    loaded = _load_spec_file(args.spec_file) if args.spec_file else budget.NO_SPECS
    platform, platform_name = _resolve_platform(args, loaded)
    tech = _resolve_technology(args, loaded)
    epsilon = _resolve_epsilon(args, loaded)
    report = budget.feasibility(platform, tech, epsilon, strict_bandwidth=args.strict_bandwidth)

    text = _feasibility_text(platform, tech, epsilon, report)
    print(text, end="")

    if not os.path.isdir(args.out):
        os.makedirs(args.out, exist_ok=True)
    txt_path = os.path.join(args.out, "feasibility.txt")
    _write_file(txt_path, text)
    json_path = os.path.join(args.out, "feasibility.json")
    inputs = {
        "platform": {"name": platform_name, **vars(platform)},
        "technology": tech,
        "epsilon": epsilon,
        "strict_bandwidth": args.strict_bandwidth,
    }
    _write_file(json_path, _json_text({**inputs, **vars(report)}))
    _write_manifest(args.out, "feasibility", inputs, None, [txt_path, json_path], started)
    return 0


# ---------------------------------------------------------------------------
# gate


def cmd_gate(args):
    from .gates import (_swap_power_rows, gate_error_vs_phase, relative_error_to_phase_error,
                        relative_error_to_phase_error_first_order)

    if args.phase_error is not None and (args.dj is not None or args.dt is not None):
        raise ValueError("give either --phase-error or --dj/--dt, not both")
    theta_target = math.pi * args.alpha
    lines = [
        "gate report",
        "===========",
        f"alpha (dimensionless):          {_fmt(args.alpha)}",
        f"target phase (rad):             {_fmt(theta_target)}",
        "target unitary (basis |00>, |01>, |10>, |11>):",
        *_matrix_lines(_swap_power_rows(args.alpha)),
    ]
    if args.phase_error is not None:
        delta = args.phase_error
        lines.append(f"delta_theta (rad):              {_fmt(delta)}")
    elif args.dj is not None:
        dt = args.dt if args.dt is not None else 0.0
        delta = relative_error_to_phase_error(theta_target, args.dj, dt)
        first = relative_error_to_phase_error_first_order(theta_target, args.dj, dt)
        lines += [
            f"dj_over_j (dimensionless):      {_fmt(args.dj)}",
            f"dt_over_t (dimensionless):      {_fmt(dt)}",
            f"delta_theta exact (rad):        {_fmt(delta)}",
            f"delta_theta first-order (rad):  {_fmt(first)}",
        ]
    else:
        raise ValueError("give --phase-error, or --dj (optionally with --dt)")
    lines.append(f"infidelity (dimensionless):     {_fmt(gate_error_vs_phase(delta))}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# mc and sweep


def _mc_config(args):
    from .gates import pulse_for_target
    from .montecarlo import McConfig
    from .noise import ControlNoiseSpec, DephasingSpec

    noise_spec = ControlNoiseSpec(args.sigma_a, args.sigma_t, args.distribution)
    dephasing = DephasingSpec(args.t2)
    return McConfig(n_samples=args.n, seed=args.seed, target_alpha=args.alpha,
                    nominal=pulse_for_target(args.alpha, args.duration), noise=noise_spec,
                    dephasing=dephasing, sensitivity=args.sensitivity)


CSV_HEADER = ["axis_value", "mean_infidelity", "stderr", "analytic_prediction",
              "n_samples", "seed"]


def _write_mc_outputs(args, cfg, rows, started, **parameters):
    """<command>.csv from (axis_value, McResult, analytic) rows, and its manifest."""
    import platform

    import numpy as np

    from .noise import RNG_SCHEME

    if not os.path.isdir(args.out):
        os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, f"{args.command}.csv")
    # no field holds a comma, quote or newline, so none needs csv's quoting
    _write_file(csv_path, ",".join(CSV_HEADER) + "\n" + "".join(
        f"{'' if value is None else _fmt(value)},{_fmt(result.mean_infidelity)},"
        f"{_fmt(result.stderr)},{_fmt(analytic)},{cfg.n_samples},{cfg.seed}\n"
        for value, result, analytic in rows))
    _write_manifest(args.out, args.command,
                    {**vars(cfg), "workers": args.workers, **parameters}, cfg.seed,
                    [csv_path], started, rng_scheme=RNG_SCHEME,
                    python_version=platform.python_version(), numpy_version=np.__version__)
    return csv_path


def cmd_mc(args):
    from . import montecarlo

    started = time.monotonic()
    cfg = _mc_config(args)
    result = montecarlo.estimate_infidelity(cfg, n_workers=args.workers)
    analytic = montecarlo.analytic_infidelity(cfg)
    csv_path = _write_mc_outputs(args, cfg, [(None, result, analytic)], started)
    print(f"mean infidelity (dimensionless): {_fmt(result.mean_infidelity)}")
    print(f"stderr (dimensionless):          {_fmt(result.stderr)}")
    print(f"analytic prediction:             {_fmt(analytic)}")
    print(f"rejected draws:                  {result.n_rejected}")
    print(f"wrote {csv_path}")
    return 0


def cmd_sweep(args):
    from . import montecarlo

    started = time.monotonic()
    cfg = _mc_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:  # float() names the bad token
        raise ValueError(f"--values must be comma-separated numbers: {exc}") from None
    points = montecarlo.sweep(cfg, args.axis, values, n_workers=args.workers)
    csv_path = _write_mc_outputs(
        args, cfg, [(p.value, p.result, p.analytic_prediction) for p in points], started,
        axis=points[0].axis, values=values,
    )
    print(f"{len(points)} rows written to {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# catalog


def cmd_catalog(args):
    from . import budget

    entries = budget.merge_catalog(_user_technologies(args.file))
    if args.format == "json":
        print(_json_text(entries), end="")
        return 0
    header = (
        f"{'name':<28} {'sigma_a (dimensionless)':>24} {'sigma_t (s)':>14} "
        f"{'bw_low (Hz)':>12} {'bw_high (Hz)':>13}"
    )
    print(header)
    print("-" * len(header))
    for t in entries:
        print(
            f"{t.name:<28} {t.sigma_a:>24.3e} {t.sigma_t_s:>14.3e} "
            f"{t.bw_low_hz:>12.3e} {t.bw_high_hz:>13.3e}"
        )
        if t.notes:
            print(f"    {t.notes}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_mc_flags(sub):
    from .noise import DISTRIBUTIONS

    sub.add_argument("--alpha", type=float, default=0.5, help="SWAP exponent of the target gate")
    sub.add_argument("--duration", type=float, default=5e-9,
                     help="nominal pulse duration in seconds (default 5e-9)")
    sub.add_argument("--sigma-a", type=float, default=0.0,
                     help="relative amplitude noise (dimensionless)")
    sub.add_argument("--sigma-t", type=float, default=0.0, help="timing jitter in seconds")
    sub.add_argument("--distribution", choices=DISTRIBUTIONS, default="gaussian")
    sub.add_argument("--t2", type=float, default=math.inf,
                     help="dephasing time in seconds (omit for no dephasing)")
    sub.add_argument("--sensitivity", type=float, default=1.0,
                     help="logarithmic sensitivity of exchange to the control field")
    sub.add_argument("--n", type=int, default=10000, help="number of Monte Carlo samples")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (default 0, reproducible)")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker threads; results are identical for any count")
    sub.add_argument("--out", default=DEFAULT_OUT_DIR, help="output directory")


def _add_feasibility_flags(p):
    p.add_argument("--platform", help="builtin platform name (e.g. si-spin)")
    p.add_argument("--t2", type=float, help="platform T2 in seconds (with --sensitivity)")
    p.add_argument("--sensitivity", type=float, help="platform sensitivity (with --t2)")
    p.add_argument("--tech", help="technology name from the catalog")
    p.add_argument("--sigma-a", type=float, help="custom technology: relative amplitude noise")
    p.add_argument("--sigma-t", type=float, help="custom technology: timing jitter in seconds")
    p.add_argument("--bw-low", type=float, help="custom technology band low edge (Hz)")
    p.add_argument("--bw-high", type=float, help="custom technology band high edge (Hz)")
    p.add_argument("--epsilon", type=float, default=None,
                   help=f"error threshold (default {DEFAULT_EPSILON})")
    p.add_argument("--spec-file", help="INI spec file providing platform/technology/threshold")
    p.add_argument("--strict-bandwidth", action="store_true",
                   help="let the bandwidth requirement gate feasibility")
    p.add_argument("--out", default=DEFAULT_OUT_DIR, help="output directory")


def _add_gate_flags(p):
    p.add_argument("--alpha", type=float, required=True, help="SWAP exponent")
    p.add_argument("--phase-error", type=float, help="pulse-area error in radians")
    p.add_argument("--dj", type=float, help="relative exchange-strength error")
    p.add_argument("--dt", type=float, help="relative duration error (with --dj)")


def _add_sweep_flags(p):
    from .budget import SWEEP_AXES

    _add_mc_flags(p)
    p.add_argument("--axis", required=True, help=f"sweep axis, one of {', '.join(SWEEP_AXES)}")
    p.add_argument("--values", required=True, help="comma-separated axis values")


def _add_catalog_flags(p):
    p.add_argument("--file", help="INI spec file with extra technology entries")
    p.add_argument("--format", choices=("text", "json"), default="text")


# command -> (help, the function that adds its flags, its handler), in help order
COMMANDS = {
    "feasibility": ("evaluate a technology against the error budget",
                    _add_feasibility_flags, cmd_feasibility),
    "gate": ("closed-form error of one fractional-SWAP gate", _add_gate_flags, cmd_gate),
    "mc": ("Monte Carlo infidelity estimate", _add_mc_flags, cmd_mc),
    "sweep": ("Monte Carlo estimates along one parameter axis", _add_sweep_flags, cmd_sweep),
    "catalog": ("list control technologies", _add_catalog_flags, cmd_catalog),
}


def _build_parser(command=None):
    """The exchsim parser, with a subparser for `command` alone.

    The other commands are choices without a parser, with the help lines that
    add_parser would list, so argparse writes its usage, help and errors as it
    does with five subparsers.  main passes the first argument without a
    leading "-", which argparse reads as the command: no top-level option
    takes a value, and -, -5 and what follows -- are no command names.
    Each call builds the invoked command's parser with one terminal-width
    read, not one per add_argument, and passes add_subparsers the prog it
    would render: the prog alone, as the parser has no positionals.
    """
    import shutil  # argparse's HelpFormatter imports it too

    width = shutil.get_terminal_size().columns - 2  # the width HelpFormatter computes
    parser = argparse.ArgumentParser(
        prog="exchsim",
        description="Exchange-gate noise budgets, feasibility verdicts, and Monte Carlo checks.",
        formatter_class=lambda prog: argparse.HelpFormatter(prog, width=width),
    )
    parser.add_argument("--version", action="version", version=f"exchsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, (help_text, add_flags, func) in COMMANDS.items():
        if name == command:
            p = sub.add_parser(name, help=help_text, formatter_class=parser.formatter_class)
            add_flags(p)
            p.set_defaults(func=func)
            p._negative_number_matcher = _NEGATIVE_NUMBER  # argparse 3.10-3.13 keep it here
        else:  # the choice and help line that add_parser would register, without the parser
            sub.choices[name] = None
            sub._choices_actions.append(sub._ChoicesPseudoAction(name, (), help_text))
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(next((arg for arg in argv if not arg.startswith("-")), None))
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        from .noise import RejectedSampleError  # only an mc or sweep run raises it

        if isinstance(exc, (ValueError, OSError, RejectedSampleError)):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        import traceback

        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
