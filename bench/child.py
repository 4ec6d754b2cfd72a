"""Cap the address space, then become the given command.

    python3 bench/child.py <cap-bytes> <program> [args...]

The cap (RLIMIT_AS) is set in this process only and survives the exec, so
an allocation beyond it is refused at once, whatever the machine's
overcommit policy.  The benchmark starts every ``smxreg`` process this way.
"""
import os
import resource
import sys

cap = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
os.execvp(sys.argv[2], sys.argv[2:])
