from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci", deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")
