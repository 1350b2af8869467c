"""holdercert: machine-checked verification that |x sin(1/x) - y sin(1/y)|
is bounded by sqrt(2 |x - y|), plus a numerical estimate of the
Holder-1/2 seminorm of x sin(1/x)."""

__version__ = "0.1.0"

from .interval import Interval  # noqa: F401
from .roots import RootCertificate, find_alpha  # noqa: F401
from .constants import ConstantsRow, c_n  # noqa: F401
from .holder import QuotientRecord, f, df, ddf, quotient  # noqa: F401
from .optimizer import SupremumReport, global_sup  # noqa: F401
