"""The paper's contribution: density score, FDET peeling, sampling, ensemble."""
from repro.core.density import DEFAULT_C, merchant_weights  # noqa: F401
from repro.core.fdet import FdetResult, fdet, truncating_point  # noqa: F401
from repro.core.peel import PeelResult, peel_densest  # noqa: F401
