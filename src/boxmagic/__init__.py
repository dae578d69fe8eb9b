"""Exact and numerical toolkit for conformal four-point box integrals.

Subpackages:

* `hc`         complexified quaternion arithmetic and cycle charts;
* `tbasis`     matrix-coefficient polynomial bases and their evaluation;
* `diagrams`   box-diagram construction, ordering and enumeration;
* `magic`      exact-rational operator engine and magic identities;
* `polylog`    polylogarithms and the ladder functions Phi^(L);
* `quadrature` deterministic cycle quadrature and verification checks;
* `cli`        the `boxmagic` command-line interface.
"""

__version__ = "0.1.0"
