"""The README CLI commands and the oracle's legs must keep their bits.

``golden_readme.json`` holds the SHA-256 digest of each README command's
output file, and under ``"oracle_legs"`` one digest over a fixed set of
seeded random ``integrate_in_zone`` legs.  A refactor that is meant to
change no output bit has to keep every digest; a change that alters an
output on purpose regenerates the file with ``python tests/test_golden.py``
and says why in its change log.  The README's library example must print
what its comment lines say.
"""

import hashlib
import json
import math
import pathlib
import struct
import sys
from unittest import mock

import numpy as np

from pwlcycles import PWLError, Point, Zone, cli, families
from pwlcycles import oracle as orc

GOLDEN = pathlib.Path(__file__).with_name("golden_readme.json")
README = pathlib.Path(__file__).parents[1] / "README.md"

SINE2 = ["--gamma", "0.75", "--family", "sine", "--n", "2", "--range", "0.1", "4"]

# (output files, argv with {name} placeholders for those files)
COMMANDS = [
    (("check.json",), ["check", *SINE2, "--out", "{check.json}"]),
    (("cycles.csv",), ["cycles", "--gamma", "0.75", "--family", "sine", "--n", "3",
                       "--range", "0.1", "5", "--format", "csv", "--out", "{cycles.csv}"]),
    (("cycles_kmax5.json",), ["cycles", "--gamma", "1", "--family", "oscillatory",
                              "--alpha", "0.3", "--kmax", "5", "--out", "{cycles_kmax5.json}"]),
    (("displacement.csv",), ["displacement", *SINE2, "--out", "{displacement.csv}"]),
    (("verify.json",), ["verify", *SINE2, "--out", "{verify.json}"]),
    # the README portrait without its seed at negative x, which the digests predate
    (("portrait.svg", "portrait.csv"), ["portrait", *SINE2, "--seed", "0,2.3", "--seed", "0,0.4",
                                        "--turns", "4", "--out", "{portrait.svg}",
                                        "--csv", "{portrait.csv}"]),
]


def readme_digests(workdir: pathlib.Path) -> dict:
    """Run every README command into ``workdir``; SHA-256 of each output file."""
    digests = {}
    for names, argv in COMMANDS:
        paths = {f"{{{n}}}": str(workdir / n) for n in names}
        code = cli.main([paths.get(a, a) for a in argv])
        assert code == cli.EXIT_OK, (argv, code)
        for n in names:
            digests[n] = hashlib.sha256((workdir / n).read_bytes()).hexdigest()
    return digests


LEG_SYSTEMS = {
    "sine": ({"family": "sine", "params": {"n": 2}}, 0.75),
    "cosine": ({"family": "cosine", "params": {"n": 2}}, 0.3),
    "oscillatory": ({"family": "oscillatory", "params": {"alpha": 0.3}}, 1.0),
}
EXITS = [(zone, direction) for zone in Zone for direction in orc.Direction]
STRIDES = (0, 1, 7)


def _leg_cases(count: int = 504):
    """(system, zone, direction, start, step, stride, counted) of seeded random legs.

    Every family, (zone, direction) pair, stride and counter setting takes
    its turn; the start lies in a box, on the section x = 0, on the
    switching curve, near the origin or at it, and the step is log-uniform
    in [1e-4, 0.3].
    """
    rng = np.random.default_rng(20141)
    systems = {name: families.system_from_descriptor({"gamma": gamma, "boundary": boundary})
               for name, (boundary, gamma) in LEG_SYSTEMS.items()}
    names = sorted(systems)
    for i in range(count):
        system = systems[names[i % 3]]
        zone, direction = EXITS[(i // 3) % 4]
        stride = STRIDES[(i // 12) % 3]
        counted = (i // 36) % 2 == 0
        x, y = rng.uniform(-3.0, 3.0, size=2)
        kind = int(rng.integers(5))
        if kind == 1:
            x = 0.0
        elif kind == 2:
            y = abs(y)
            x = float(system.boundary.evaluate(y))
        elif kind == 3:
            x, y = 0.1 * x, 0.1 * y
        elif kind == 4:
            x = y = 0.0  # the origin: the leg times out
        step = 10.0 ** rng.uniform(-4.0, math.log10(0.3))
        yield system, zone, direction, Point(float(x), float(y)), float(step), stride, counted


def legs_digest() -> str:
    """SHA-256 over the times, points, event, counters and landing error of every leg.

    ``MAX_TIME`` is 10 so that legs which never leave their zone stay short;
    a leg that fails contributes its error type and message.
    """
    digest = hashlib.sha256()
    with mock.patch.object(orc, "MAX_TIME", 10.0):
        for system, zone, direction, start, step, stride, counted in _leg_cases():
            try:
                seg = orc.integrate_in_zone(system, zone, start, direction, step, stride,
                                            _count_crossings=counted)
            except PWLError as exc:
                digest.update(f"{type(exc).__name__}: {exc}".encode())
                continue
            digest.update(seg.times.tobytes())
            digest.update(seg.points.tobytes())
            digest.update(seg.terminal_event.value.encode())
            digest.update(struct.pack("<qqd", seg.sigma_crossings, seg.section_returns,
                                      seg.landing_error))
    return digest.hexdigest()


def test_readme_outputs_byte_identical(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    golden.pop("oracle_legs")
    assert readme_digests(tmp_path) == golden


def test_readme_library_example_prints_its_comments(capsys):
    # the example's "# " lines are what it prints
    block = README.read_text().split("## Library example", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert capsys.readouterr().out.splitlines() == expected


def test_oracle_legs_bit_identical():
    assert legs_digest() == json.loads(GOLDEN.read_text())["oracle_legs"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = readme_digests(pathlib.Path(tmp))
    digests["oracle_legs"] = legs_digest()
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
