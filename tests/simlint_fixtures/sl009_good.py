# simlint-fixture-path: repro/scenarios/cli.py
"""Known-good fixture: values arrive as explicit ``--set`` overrides.

No module may read the environment, the scenario CLI included; a run's
values come from a scenario config (``configs/*.toml``) plus override
strings passed on the command line (see ``sl009_bad.py`` for the banned
spellings).
"""

import argparse


def overrides_from_argv(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--set", dest="overrides", action="append", default=[])
    return parser.parse_args(argv).overrides
