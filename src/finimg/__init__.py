"""finimg: image encodings of financial feature vectors and CNN comparisons."""

__version__ = "0.1.0"
