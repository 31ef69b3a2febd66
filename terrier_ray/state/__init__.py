from terrier_ray.state.manifest import fingerprint, run_epoch  # noqa: F401
