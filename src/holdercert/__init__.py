"""holdercert: machine-checked verification that |x sin(1/x) - y sin(1/y)|
is bounded by sqrt(2 |x - y|), plus a numerical estimate of the
Holder-1/2 seminorm of x sin(1/x)."""

__version__ = "0.1.0"
