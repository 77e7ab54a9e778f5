"""The project-invariant rule set (imported to populate ``RULES``)."""

import repro.analysis.rules.rep001  # noqa: F401
import repro.analysis.rules.rep002  # noqa: F401
import repro.analysis.rules.rep003  # noqa: F401
import repro.analysis.rules.rep004  # noqa: F401
import repro.analysis.rules.rep005  # noqa: F401
import repro.analysis.rules.rep006  # noqa: F401
