// Fixture: the KDF's cached PRK, held as HMAC states in a `_prkMac`
// field, is used through a member call and the result is logged.
// A method call on a secret field yields secret bytes.
#include "crypto/hmac.hh"
#include "sim/logging.hh"

namespace hypertee
{

class PrkHolder
{
  public:
    void
    dump() const
    {
        HmacSha256::Tag t = _prkMac.tag({});
        inform("prk block ", toHex(t.data(), t.size())); // BAD
    }

  private:
    HmacSha256 _prkMac{Bytes(32, 1)};
};

} // namespace hypertee
