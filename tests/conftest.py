import os

from hypothesis import settings

# CI runs (GitHub Actions sets CI) draw the same examples every time and
# have no per-example deadline, so a slow shared runner cannot fail a test
# on timing; local runs keep hypothesis's defaults.
settings.register_profile("ci", deadline=None, derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
