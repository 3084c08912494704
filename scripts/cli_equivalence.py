"""The command lines that scripts/side_by_side.py compares across revisions.

A fixed list of argvs, each run in process through the package's cli.main:
the golden transcripts of tests/test_cli.py, the other verdicts and exit
statuses that its tests reach, a usage error and --help (both end in
SystemExit), CLI usage errors, the domain errors of out-of-range, NaN
and infinite coefficients, coefficients within eps outside their range,
at the default eps and at a wide one, a b within eps below 1, and both
sides of the tie ap = 1/2 between bell and classify.  An outcome is the
exit status (or the SystemExit code) with the exact stdout and stderr.
"""

import contextlib
import io

from scalar_equivalence import call

ARGVS = (
    # the golden transcripts
    ("transform", "--source", "0.7,0.3", "--target", "0.8,0.2"),
    ("transform", "--source", "0.7,0.3", "--target", "0.8,0.2", "--json"),
    ("classify", "--a", "0.7", "--b", "0.8", "--p", "0.6", "--q", "0.55"),
    ("classify", "--a", "0.7", "--b", "0.8", "--p", "0.6", "--q", "0.55", "--json"),
    ("bell", "--a", "0.6", "--p", "0.7", "--b", "0.9"),
    ("bell", "--a", "0.6", "--p", "0.7"),
    ("bell", "--a", "0.7", "--p", "0.8", "--json"),
    ("region", "--a", "0.7", "--b", "0.8", "--n", "1", "--json"),
    # other verdicts: every class and exit status that tests/test_cli.py reaches
    ("transform", "--a", "0.3", "--b", "0.8"),
    ("transform", "--source", "0.63,0.27,0.07,0.03", "--target", "0.64,0.16,0.16,0.04"),
    ("transform", "--source", "0.5,0.5", "--target", "0.5,0.5"),
    ("transform", "--source", "0.8,0.2", "--target", "0.7,0.3"),
    ("transform", "--source", "0.3,0.7", "--target", "0.2,0.8"),
    ("classify", "--a", "0.7", "--b", "0.8", "--p", "0.9", "--q", "0.8"),
    ("classify", "--a", "0.7", "--b", "0.8", "--p", "0.8", "--q", "0.7"),
    ("classify", "--a", "0.7", "--b", "0.8", "--p", "0.9", "--q", "0.55"),
    ("bell", "--a", "0.6", "--p", "0.7", "--b", "1.0"),
    ("classify", "--a", "0.7", "--b", "1.0", "--p", "0.6", "--q", "0.55"),
    # argparse's own exits: a missing argument, and --help
    ("classify", "--a", "0.7", "--b", "0.8", "--p", "0.6"),
    ("--help",),
    ("classify", "--help"),
    # errors the commands raise
    ("transform", "--source", "0.7,0.3"),
    ("classify", "--a", "nan", "--b", "0.8", "--p", "0.6", "--q", "0.55"),
    ("classify", "--a", "0.7", "--b", "nan", "--p", "0.6", "--q", "0.55"),
    ("classify", "--a", "0.3", "--b", "0.8", "--p", "0.6", "--q", "0.55"),
    ("classify", "--a", "0.7", "--b", "1.2", "--p", "0.6", "--q", "0.55"),
    ("classify", "--a", "inf", "--b", "0.8", "--p", "0.6", "--q", "0.55"),
    ("region", "--a", "0.8", "--b", "0.7", "--n", "5"),
    # values within eps outside [1/2, 1], which the gates clamp onto the end
    ("classify", "--a", "0.7", "--b", "0.8", "--p", "1.0000000000005", "--q", "0.6"),
    ("classify", "--a", "0.4999999999995", "--b", "0.8", "--p", "0.6", "--q", "0.55"),
    ("bell", "--a", "0.7", "--p", "1.0000000000005", "--b", "1.0000000000005"),
    # the same at a wide eps, where the clamped value shows in the printed digits
    ("classify", "--a", "0.7", "--b", "0.8", "--p", "0.6", "--q", "0.4999", "--eps", "9e-4"),
    ("classify", "--a", "0.4999", "--b", "0.8", "--p", "0.6", "--q", "0.55", "--eps", "9e-4"),
    ("bell", "--a", "1.0005", "--p", "0.6", "--eps", "9e-4"),
    ("bell", "--a", "0.7", "--p", "1.0005", "--b", "0.9", "--eps", "9e-4"),
    ("region", "--a", "0.4999", "--b", "0.8", "--n", "1", "--eps", "9e-4", "--json"),
    # b within eps below 1, which the gate stores as 1: bell, region and
    # classify print b = 1 and decide on it
    ("bell", "--a", "0.7", "--p", "0.6", "--b", "0.9995", "--eps", "9e-4"),
    ("region", "--a", "0.7", "--b", "0.9995", "--n", "2", "--eps", "9e-4", "--json"),
    ("classify", "--a", "0.7", "--b", "0.9995", "--p", "0.8", "--q", "0.6", "--eps", "9e-4"),
    # both sides of the Bell tie: bell is strict beyond eps and answers no at
    # ap = 1/2 exactly and at ap = 1/2 + 2**-55, where classify, on Nielsen's
    # non-strict rule, answers recovery
    ("bell", "--a", "0.5", "--p", "1"),
    ("bell", "--a", "1", "--p", "0.5"),
    ("bell", "--a", "0.625", "--p", "0.8", "--b", "1"),
    ("classify", "--a", "0.625", "--b", "1", "--p", "0.8", "--q", "0.5"),
)


def run(module, argv):
    """(exit status or SystemExit code, stdout, stderr) of module.cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = module.cli.main(list(argv))
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def outcomes(module, argv):
    """{"cli <command>": outcome} of argv run by package module: its status,
    stdout and stderr in comparable form, or the exception's type and message."""
    return {f"cli {argv[0]}": call(run, module, argv)[1]}
