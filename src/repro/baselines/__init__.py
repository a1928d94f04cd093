"""Comparison methods from the paper's §V-B2: FRAUDAR, SPOKEN, FBox."""
