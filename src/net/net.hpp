#pragma once

/// Umbrella header for cuzc::net — the socket front-end of the
/// assessment service (cuzc-wire-v2 protocol, NetServer, NetClient).

#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
