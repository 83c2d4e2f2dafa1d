"""Property test of ``msl``'s error contract on configs drawn from ``cli.SCHEMAS``.

Each example picks a command and draws a config from that command's schema
table.  Half the examples draw every key valid; in the others each key may
also be mutated to a value of the wrong type or range, left out, or added
where it does not belong, and now and then an unknown key is added.  Nested
tables and "exactly one of" groups are drawn the same way.
``main()`` runs in-process on the bundled fixture, and the test asserts that

* the exit code is 0, 2 or 3;
* a failing run prints exactly one line on stderr;
* every ``report.json`` written parses as strict JSON.

Annealing schedules are always drawn with at most three replications, chain
steps and stages, so that the test stays fast.  Warnings that successful runs
print, such as ``build_box``'s excluded-paths UserWarning, are not checked:
they belong to the planned ``mslogistic`` logger.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from mslogistic import cli
from mslogistic.simulate import MAX_FLOATS

FIXTURE = str(Path(__file__).parent / "data" / "epidemic_shaped.csv")

# valid values by validator description; the seed validator has its own pool
VALID = {
    "a finite number": [0.0, 1.0, 0.1, -0.009, 210.0, 246.0, 350.0],
    "a positive number": [0.7, 1e-4, 0.3679, 5.0, 15.0],
    "a level in (0, 1)": [0.9, 0.5, 0.99],
    "true or false": [False, True],
    "a file path string": [FIXTURE, FIXTURE, "no-such-panel.csv"],
    "'nr' or 'sa'": ["nr", "sa"],
    "an integer >= 1": [3, 1, 2],
    f"an integer in [2, {MAX_FLOATS}]": [11, 2],
}
SEEDS = [0, 7, 2**64 - 1]
MUTATIONS = [None, True, "x", -1, 0, 1.5, 1e300, float("nan"), [], {}, [2.0], "3"]
SEED_MUTATIONS = [-1, 2**64, 1.5, "x", True]
# keys always present, so that no annealing run uses the default schedule
ALWAYS = {"sa", "replications", "chain_length", "max_iter"}


def draw_valid(data, validator, noisy):
    if isinstance(validator, cli._Table):
        return draw_table(data, validator, noisy)
    if isinstance(validator, cli._List):
        n = data.draw(st.integers(validator.min_len, validator.min_len + 2))
        return [data.draw(st.sampled_from(VALID[validator.item.desc])) for _ in range(n)]
    if validator is cli._seed:
        return data.draw(st.sampled_from(SEEDS))
    return data.draw(st.sampled_from(VALID[validator.desc]))


def draw_table(data, table, noisy):
    chosen = data.draw(st.sampled_from(table.one_of)) if table.one_of else ()
    grouped = {k for alt in table.one_of for k in alt}
    config = {}
    for key, (required, validator) in table.fields.items():
        if key in grouped:
            wanted = key in chosen
        else:
            wanted = required or key in ALWAYS or data.draw(st.booleans())
        action = data.draw(st.sampled_from(["valid"] * 8 + ["mutate", "toggle"])) if noisy else "valid"
        if action == "toggle" and key not in ALWAYS:
            wanted = not wanted
        if not wanted:
            continue
        if action == "mutate":
            pool = SEED_MUTATIONS if validator is cli._seed else MUTATIONS
            config[key] = data.draw(st.sampled_from(pool))
        else:
            config[key] = draw_valid(data, validator, noisy)
    if noisy and data.draw(st.integers(0, 9)) == 0:
        config["unexpected"] = 1
    return config


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_main_keeps_the_error_contract(data):
    command = data.draw(st.sampled_from(sorted(cli.SCHEMAS)))
    config = draw_table(data, cli.SCHEMAS[command], noisy=data.draw(st.booleans()))
    flags = data.draw(st.sampled_from([[], [], ["--scale-max"], ["--seed", "3"],
                                       ["--method", "sa"], ["--method", "nr"]]))
    if command == "fit" and "sa" not in (config.get("method"), *flags):
        config.pop("sa", None)  # only method 'sa' reads it; keeps NR fits reachable
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", str(cfg), "--out", str(out), *flags])
        assert code in (0, 2, 3)
        if code:
            assert err.getvalue().count("\n") == 1, err.getvalue()
        for report in out.rglob("report.json"):
            json.loads(report.read_text(encoding="utf-8"), parse_constant=_reject_constant)
