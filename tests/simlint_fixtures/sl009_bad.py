# simlint-fixture-path: repro/analysis/experiments.py
"""Known-bad fixture: environment knobs read instead of config overrides."""

import os
from os import environ, getenv


def scaling_knobs():
    sources = os.getenv("FIG10_SOURCES", "")  # expect: SL009
    epochs = int(os.environ.get("FIG10_EPOCHS", "35"))  # expect: SL009
    migrate = "FIG10_MIGRATION" in os.environ  # expect: SL009
    rate = environ["RECMODE_RATE"]  # expect: SL009
    speedup = getenv("RECMODE_MIN_SPEEDUP")  # expect: SL009
    return sources, epochs, migrate, rate, speedup
