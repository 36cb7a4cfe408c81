"""Root growth time-series classification: PCA features, SVMs, and
negative-correlation ensembles compared over sliding frame windows."""
