"""Synthetic gunshot audio benchmark.

Synthesis of labeled gunshot/background clips, numpy-based DSP features
(log-mel spectrograms, autocorrelation, bag-of-audio-words), an SVM baseline
and a joint detection + gun-type CNN trained with explicit per-layer
forward/backward passes, and a reproducible split/metric evaluation harness
with a CLI front end.
"""

__version__ = "0.1.0"
