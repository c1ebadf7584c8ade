"""From-scratch vocal-biomarker classification toolkit.

Ingests the 24-column sustained-phonation feature table, balances
classes with synthetic minority oversampling, trains five native
classifier families (two gradient-boosting variants, AdaBoost stumps,
bagged CART, and an RBF-kernel SVM), and evaluates them with a native
confusion/ROC/AUC metric suite — all behind one deterministic,
seed-reproducible experiment runner and CLI.

The top level re-exports the experiment entry points and the error
types; every other piece is imported from its module.
"""

__version__ = "0.1.0"

from .errors import ConfigError, PdvoxError, SchemaError, ValidationError  # noqa: E402,F401
from .experiment import RunConfig, emit_comparison, parse_report, run_experiment  # noqa: E402,F401
