// Fixture: keys expanded from the cached PRK are only measured, and
// the log says how long they are, never what they hold.
#include "crypto/hmac.hh"
#include "sim/logging.hh"

namespace hypertee
{

class PrkHolder
{
  public:
    void
    report(const Bytes &info) const
    {
        Bytes key = hkdfExpand(_prkMac, info, 16);
        inform("derived ", key.size(), " key bytes");
    }

  private:
    HmacSha256 _prkMac{Bytes(32, 1)};
};

} // namespace hypertee
