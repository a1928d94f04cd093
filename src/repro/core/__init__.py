"""The paper's contribution: density score, FDET peeling, sampling, ensemble."""
