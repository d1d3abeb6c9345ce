"""The README CLI commands must keep producing byte-identical output.

``golden_readme.json`` holds the SHA-256 digest of each command's output
file.  A refactor that is meant to change no output bit has to keep every
digest; a change that alters an output on purpose regenerates the file
with ``python tests/test_golden.py`` and says why in its change log.
"""

import hashlib
import json
import pathlib
import sys

from pwlcycles import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_readme.json")

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


def test_readme_outputs_byte_identical(tmp_path):
    assert readme_digests(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(readme_digests(pathlib.Path(tmp)), indent=2) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
