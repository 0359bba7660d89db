// QuorumTracker is header-only; this TU anchors the library.
#include "src/net/rpc.h"
