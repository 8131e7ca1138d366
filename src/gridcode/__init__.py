"""Low-degree multilinear codes on the Boolean cube: local testing, local
decoding over small characteristic, tolerant testing, and the combinatorial
machinery behind them (bucket processes, dual witnesses, balanced-vector
spans), all with exact small-case oracles."""

__version__ = "0.1.0"
