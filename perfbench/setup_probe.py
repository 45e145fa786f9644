"""Set-up probe: import the public API (and load the JIT kernel with
``--jit``), then print ``ready``.  ``run.py`` times this from spawn to
the ``ready`` line: the set-up a fresh ``repro`` process pays."""

import sys

import repro.api  # noqa: F401  (the import is what is being timed)

ok = True
if "--jit" in sys.argv[1:]:
    from repro.runtime.compiledpath import warm_compile

    ok = warm_compile()
print("ready" if ok else "jit-unavailable", flush=True)
