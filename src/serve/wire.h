// Wire format for the serve protocol: newline-delimited JSON, one request
// or response object per line, read and written with the library codec
// (util/json.h). Its strict reader turns malformed client input into a
// structured `bad_json` response instead of a dead daemon.
#pragma once

#include "util/json.h"

namespace bd::serve {

using bd::Json;
using bd::JsonObject;

}  // namespace bd::serve
