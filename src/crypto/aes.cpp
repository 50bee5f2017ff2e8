#include "crypto/aes.h"

#include <cassert>
#include <cstring>

namespace nlss::crypto {
namespace {

// ---- GF(2^8) arithmetic and constexpr table generation (FIPS-197) ----

constexpr std::uint8_t XTime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1B : 0x00));
}

constexpr std::uint8_t GMul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = XTime(a);
    b >>= 1;
  }
  return p;
}

struct SboxTables {
  std::array<std::uint8_t, 256> sbox{};
  std::array<std::uint8_t, 256> inv_sbox{};

  constexpr SboxTables() {
    // Build via the multiplicative generator 3 (log/antilog tables).
    std::array<std::uint8_t, 256> exp{};
    std::array<std::uint8_t, 256> log{};
    std::uint8_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[i] = x;
      log[x] = static_cast<std::uint8_t>(i);
      x = static_cast<std::uint8_t>(x ^ XTime(x));  // multiply by 3
    }
    exp[255] = exp[0];
    for (int i = 0; i < 256; ++i) {
      const std::uint8_t inv =
          (i == 0) ? 0 : exp[255 - log[static_cast<std::uint8_t>(i)]];
      // Affine transform: inv ^ rotl(inv,1..4) ^ 0x63.
      std::uint8_t s = inv;
      std::uint8_t r = static_cast<std::uint8_t>(inv ^ 0x63);
      for (int j = 0; j < 4; ++j) {
        s = static_cast<std::uint8_t>((s << 1) | (s >> 7));
        r ^= s;
      }
      sbox[i] = r;
      inv_sbox[r] = static_cast<std::uint8_t>(i);
    }
  }
};

constexpr SboxTables kTables{};

constexpr std::uint8_t Sbox(std::uint8_t b) { return kTables.sbox[b]; }
constexpr std::uint8_t InvSbox(std::uint8_t b) { return kTables.inv_sbox[b]; }

// T-tables for the fast encryption path: Te0[x] packs one column of
// SubBytes+MixColumns; Te1..Te3 are byte rotations of Te0.
struct TeTables {
  std::array<std::uint32_t, 256> t0{}, t1{}, t2{}, t3{};

  constexpr TeTables() {
    for (int i = 0; i < 256; ++i) {
      const std::uint8_t s = kTables.sbox[i];
      const std::uint8_t s2 = XTime(s);
      const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
      const std::uint32_t w = (static_cast<std::uint32_t>(s2) << 24) |
                              (static_cast<std::uint32_t>(s) << 16) |
                              (static_cast<std::uint32_t>(s) << 8) | s3;
      t0[i] = w;
      t1[i] = (w >> 8) | (w << 24);
      t2[i] = (w >> 16) | (w << 16);
      t3[i] = (w >> 24) | (w << 8);
    }
  }
};

constexpr TeTables kTe{};

// State layout: state[r + 4*c], matching FIPS-197 (bytes fill columns).

void AddRoundKey(std::uint8_t s[16], const std::uint8_t rk[16]) {
  for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
}

void InvSubBytes(std::uint8_t s[16]) {
  for (int i = 0; i < 16; ++i) s[i] = InvSbox(s[i]);
}

void InvShiftRows(std::uint8_t s[16]) {
  std::uint8_t t[16];
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      t[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
    }
  }
  std::memcpy(s, t, 16);
}

void InvMixColumns(std::uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = s + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = GMul(a0, 0x0E) ^ GMul(a1, 0x0B) ^ GMul(a2, 0x0D) ^ GMul(a3, 0x09);
    col[1] = GMul(a0, 0x09) ^ GMul(a1, 0x0E) ^ GMul(a2, 0x0B) ^ GMul(a3, 0x0D);
    col[2] = GMul(a0, 0x0D) ^ GMul(a1, 0x09) ^ GMul(a2, 0x0E) ^ GMul(a3, 0x0B);
    col[3] = GMul(a0, 0x0B) ^ GMul(a1, 0x0D) ^ GMul(a2, 0x09) ^ GMul(a3, 0x0E);
  }
}

}  // namespace

Aes::Aes(std::span<const std::uint8_t> key) {
  assert(key.size() == 16 || key.size() == 32);
  const int nk = static_cast<int>(key.size() / 4);  // words in key
  rounds_ = nk + 6;                                 // 10 or 14
  const int total_words = 4 * (rounds_ + 1);

  auto word = [&](int i) -> std::uint8_t* { return round_keys_.data() + 4 * i; };
  std::memcpy(round_keys_.data(), key.data(), key.size());

  std::uint8_t rcon = 1;
  for (int i = nk; i < total_words; ++i) {
    std::uint8_t temp[4];
    std::memcpy(temp, word(i - 1), 4);
    if (i % nk == 0) {
      // RotWord + SubWord + Rcon.
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(Sbox(temp[1]) ^ rcon);
      temp[1] = Sbox(temp[2]);
      temp[2] = Sbox(temp[3]);
      temp[3] = Sbox(t0);
      rcon = XTime(rcon);
    } else if (nk > 6 && i % nk == 4) {
      for (int j = 0; j < 4; ++j) temp[j] = Sbox(temp[j]);
    }
    for (int j = 0; j < 4; ++j) {
      word(i)[j] = static_cast<std::uint8_t>(word(i - nk)[j] ^ temp[j]);
    }
  }
}

void Aes::EncryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const {
  // T-table fast path: four table lookups per column per round.
  auto load_be = [](const std::uint8_t* p) -> std::uint32_t {
    return (static_cast<std::uint32_t>(p[0]) << 24) |
           (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
  };
  auto rk = [this](int word) -> std::uint32_t {
    const std::uint8_t* p = round_keys_.data() + 4 * word;
    return (static_cast<std::uint32_t>(p[0]) << 24) |
           (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
  };
  std::uint32_t w0 = load_be(in) ^ rk(0);
  std::uint32_t w1 = load_be(in + 4) ^ rk(1);
  std::uint32_t w2 = load_be(in + 8) ^ rk(2);
  std::uint32_t w3 = load_be(in + 12) ^ rk(3);
  for (int round = 1; round < rounds_; ++round) {
    const std::uint32_t t0 = kTe.t0[w0 >> 24] ^ kTe.t1[(w1 >> 16) & 0xFF] ^
                             kTe.t2[(w2 >> 8) & 0xFF] ^ kTe.t3[w3 & 0xFF] ^
                             rk(4 * round);
    const std::uint32_t t1 = kTe.t0[w1 >> 24] ^ kTe.t1[(w2 >> 16) & 0xFF] ^
                             kTe.t2[(w3 >> 8) & 0xFF] ^ kTe.t3[w0 & 0xFF] ^
                             rk(4 * round + 1);
    const std::uint32_t t2 = kTe.t0[w2 >> 24] ^ kTe.t1[(w3 >> 16) & 0xFF] ^
                             kTe.t2[(w0 >> 8) & 0xFF] ^ kTe.t3[w1 & 0xFF] ^
                             rk(4 * round + 2);
    const std::uint32_t t3 = kTe.t0[w3 >> 24] ^ kTe.t1[(w0 >> 16) & 0xFF] ^
                             kTe.t2[(w1 >> 8) & 0xFF] ^ kTe.t3[w2 & 0xFF] ^
                             rk(4 * round + 3);
    w0 = t0;
    w1 = t1;
    w2 = t2;
    w3 = t3;
  }
  // Final round: SubBytes + ShiftRows only.
  auto final_word = [&](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                        std::uint32_t d, int word) -> std::uint32_t {
    return ((static_cast<std::uint32_t>(Sbox(a >> 24)) << 24) |
            (static_cast<std::uint32_t>(Sbox((b >> 16) & 0xFF)) << 16) |
            (static_cast<std::uint32_t>(Sbox((c >> 8) & 0xFF)) << 8) |
            Sbox(d & 0xFF)) ^
           rk(word);
  };
  const std::uint32_t o0 = final_word(w0, w1, w2, w3, 4 * rounds_);
  const std::uint32_t o1 = final_word(w1, w2, w3, w0, 4 * rounds_ + 1);
  const std::uint32_t o2 = final_word(w2, w3, w0, w1, 4 * rounds_ + 2);
  const std::uint32_t o3 = final_word(w3, w0, w1, w2, 4 * rounds_ + 3);
  auto store_be = [](std::uint8_t* p, std::uint32_t v) {
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
  };
  store_be(out, o0);
  store_be(out + 4, o1);
  store_be(out + 8, o2);
  store_be(out + 12, o3);
}

void Aes::DecryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const {
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  AddRoundKey(s, round_keys_.data() + 16 * rounds_);
  for (int round = rounds_ - 1; round >= 1; --round) {
    InvShiftRows(s);
    InvSubBytes(s);
    AddRoundKey(s, round_keys_.data() + 16 * round);
    InvMixColumns(s);
  }
  InvShiftRows(s);
  InvSubBytes(s);
  AddRoundKey(s, round_keys_.data());
  std::memcpy(out, s, 16);
}

void CtrCrypt(const Aes& aes, const std::uint8_t iv[16],
              std::span<std::uint8_t> data) {
  std::uint8_t counter[16];
  std::memcpy(counter, iv, 16);
  std::uint8_t keystream[16];
  std::size_t off = 0;
  while (off < data.size()) {
    aes.EncryptBlock(counter, keystream);
    const std::size_t n = std::min<std::size_t>(16, data.size() - off);
    for (std::size_t i = 0; i < n; ++i) data[off + i] ^= keystream[i];
    off += n;
    // Increment the low 64 bits (big-endian within the block tail).
    for (int i = 15; i >= 8; --i) {
      if (++counter[i] != 0) break;
    }
  }
}

namespace {

void GfDouble(std::uint8_t t[16]) {
  // Multiply the 128-bit tweak by x in GF(2^128) with the XTS polynomial.
  std::uint8_t carry = 0;
  for (int i = 0; i < 16; ++i) {
    const std::uint8_t next_carry = static_cast<std::uint8_t>(t[i] >> 7);
    t[i] = static_cast<std::uint8_t>((t[i] << 1) | carry);
    carry = next_carry;
  }
  if (carry) t[0] ^= 0x87;
}

template <typename BlockFn>
void XtsProcess(const Aes& key2, std::uint64_t sector,
                std::span<std::uint8_t> data, BlockFn&& block_fn) {
  assert(data.size() % 16 == 0);
  std::uint8_t tweak[16] = {};
  for (int i = 0; i < 8; ++i) {
    tweak[i] = static_cast<std::uint8_t>(sector >> (8 * i));
  }
  std::uint8_t t[16];
  key2.EncryptBlock(tweak, t);
  for (std::size_t off = 0; off < data.size(); off += 16) {
    std::uint8_t buf[16];
    for (int i = 0; i < 16; ++i) buf[i] = data[off + i] ^ t[i];
    block_fn(buf, buf);
    for (int i = 0; i < 16; ++i) data[off + i] = buf[i] ^ t[i];
    GfDouble(t);
  }
}

}  // namespace

void XtsEncrypt(const Aes& key1, const Aes& key2, std::uint64_t sector,
                std::span<std::uint8_t> data) {
  XtsProcess(key2, sector, data,
             [&](const std::uint8_t* in, std::uint8_t* out) {
               key1.EncryptBlock(in, out);
             });
}

void XtsDecrypt(const Aes& key1, const Aes& key2, std::uint64_t sector,
                std::span<std::uint8_t> data) {
  XtsProcess(key2, sector, data,
             [&](const std::uint8_t* in, std::uint8_t* out) {
               key1.DecryptBlock(in, out);
             });
}

}  // namespace nlss::crypto
