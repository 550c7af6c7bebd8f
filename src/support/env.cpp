#include "support/env.h"

#include <cstdlib>

namespace wsc {

bool
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && v[0] != '\0' &&
           !(v[0] == '0' && v[1] == '\0');
}

uint64_t
envU64(const char *name, uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (v == nullptr || v[0] == '\0')
        return fallback;
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0')
        return fallback;
    return static_cast<uint64_t>(parsed);
}

} // namespace wsc
