#include "secretshare/pvss.h"

#include <stdexcept>

#include "common/executor.h"
#include "crypto/sha256.h"

namespace rockfs::secretshare {

using crypto::Point;
using crypto::Uint256;

namespace {

Uint256 dleq_challenge(const Point& g1, const Point& h1, const Point& g2, const Point& h2,
                       const Point& a1, const Point& a2) {
  const Bytes input = concat({crypto::point_encode(g1), crypto::point_encode(h1),
                              crypto::point_encode(g2), crypto::point_encode(h2),
                              crypto::point_encode(a1), crypto::point_encode(a2)});
  return crypto::scalar_from_bytes(crypto::sha256(input));
}

// X_i = sum_j index^j * C_j = p(index) * G, derived publicly from commitments.
Point commitment_eval(const std::vector<Point>& commitments, std::size_t index) {
  std::vector<std::pair<Uint256, Point>> terms;
  terms.reserve(commitments.size());
  Uint256 x_pow(1);
  const Uint256 x(index);
  for (const Point& c : commitments) {
    terms.emplace_back(x_pow, c);
    x_pow = crypto::scalar_mul_mod_n(x_pow, x);
  }
  return crypto::scalar_mul_sum(terms);
}

void append_point(Bytes& out, const Point& p) { append_lp(out, crypto::point_encode(p)); }

Point read_point(BytesView b, std::size_t* off) {
  return crypto::point_decode(read_lp(b, off));
}

void append_proof(Bytes& out, const DleqProof& proof) {
  append(out, proof.c.to_bytes_be());
  append(out, proof.r.to_bytes_be());
}

DleqProof read_proof(BytesView b, std::size_t* off) {
  if (*off + 64 > b.size()) throw std::out_of_range("dleq proof truncated");
  DleqProof p;
  p.c = Uint256::from_bytes_be(b.subspan(*off, 32));
  p.r = Uint256::from_bytes_be(b.subspan(*off + 32, 32));
  *off += 64;
  return p;
}

}  // namespace

DleqProof dleq_prove(const Point& g1, const Point& h1, const Point& g2, const Point& h2,
                     const Uint256& witness, crypto::Drbg& drbg) {
  return dleq_prove_with_nonce(g1, h1, g2, h2, witness,
                               crypto::scalar_from_bytes(drbg.generate(32)));
}

DleqProof dleq_prove_with_nonce(const Point& g1, const Point& h1, const Point& g2,
                                const Point& h2, const Uint256& witness,
                                const Uint256& nonce) {
  const Point a1 = crypto::scalar_mul(nonce, g1);
  const Point a2 = crypto::scalar_mul(nonce, g2);
  DleqProof proof;
  proof.c = dleq_challenge(g1, h1, g2, h2, a1, a2);
  proof.r = crypto::scalar_sub(nonce, crypto::scalar_mul_mod_n(proof.c, witness));
  return proof;
}

bool dleq_verify(const Point& g1, const Point& h1, const Point& g2, const Point& h2,
                 const DleqProof& proof) {
  // a1' = r*g1 + c*h1, a2' = r*g2 + c*h2 must hash back to c.
  const std::pair<Uint256, Point> t1[] = {{proof.r, g1}, {proof.c, h1}};
  const std::pair<Uint256, Point> t2[] = {{proof.r, g2}, {proof.c, h2}};
  const Point a1 = crypto::scalar_mul_sum(t1);
  const Point a2 = crypto::scalar_mul_sum(t2);
  return dleq_challenge(g1, h1, g2, h2, a1, a2) == proof.c;
}

PvssDeal pvss_share(const Uint256& secret, const std::vector<Point>& participant_keys,
                    std::size_t k, crypto::Drbg& drbg, common::Executor* exec) {
  const std::size_t n = participant_keys.size();
  if (k == 0 || k > n) throw std::invalid_argument("pvss_share: need 1 <= k <= n");

  // Random degree-(k-1) polynomial over Z_n with p(0) = secret.
  std::vector<Uint256> coeffs(k);
  coeffs[0] = secret;
  for (std::size_t j = 1; j < k; ++j) {
    coeffs[j] = crypto::scalar_from_bytes(drbg.generate(32));
  }

  PvssDeal deal;
  deal.k = k;
  deal.commitments.reserve(k);
  for (const Uint256& a : coeffs) deal.commitments.push_back(crypto::scalar_mul_base(a));

  // Pre-draw the per-share DLEQ nonces in index order — the same DRBG
  // stream the sequential loop used to consume — so the per-share scalar
  // work below can run concurrently without touching the DRBG.
  std::vector<Uint256> nonces(n);
  for (std::size_t i = 0; i < n; ++i) {
    nonces[i] = crypto::scalar_from_bytes(drbg.generate(32));
  }

  deal.shares.resize(n);
  common::parallel_for_index(exec, n, [&](std::size_t idx) {
    const std::size_t i = idx + 1;
    // s_i = p(i) via Horner over Z_n.
    Uint256 si(0);
    for (std::size_t j = k; j > 0; --j) {
      si = crypto::scalar_add(crypto::scalar_mul_mod_n(si, Uint256(i)), coeffs[j - 1]);
    }
    const Point& pk = participant_keys[idx];
    PvssEncryptedShare share;
    share.index = i;
    share.y = crypto::scalar_mul(si, pk);
    const Point xi = crypto::scalar_mul_base(si);
    share.proof = dleq_prove_with_nonce(crypto::generator(), xi, pk, share.y, si, nonces[idx]);
    deal.shares[idx] = std::move(share);
  });
  return deal;
}

bool pvss_verify_deal(const PvssDeal& deal, const std::vector<Point>& participant_keys) {
  if (deal.k == 0 || deal.commitments.size() != deal.k) return false;
  if (deal.shares.size() != participant_keys.size()) return false;
  for (const Point& c : deal.commitments) {
    if (!crypto::on_curve(c)) return false;
  }
  for (std::size_t i = 0; i < deal.shares.size(); ++i) {
    const PvssEncryptedShare& share = deal.shares[i];
    if (share.index != i + 1) return false;
    const Point xi = commitment_eval(deal.commitments, share.index);
    if (!dleq_verify(crypto::generator(), xi, participant_keys[i], share.y, share.proof)) {
      return false;
    }
  }
  return true;
}

Result<PvssDecryptedShare> pvss_decrypt_share(const PvssDeal& deal, std::size_t index,
                                              const crypto::KeyPair& participant,
                                              crypto::Drbg& drbg) {
  if (index == 0 || index > deal.shares.size()) {
    return Error{ErrorCode::kInvalidArgument, "pvss_decrypt_share: bad index"};
  }
  const PvssEncryptedShare& enc = deal.shares[index - 1];
  // Y_i = s_i * (x_i * G) so s_i * G = x_i^{-1} * Y_i.
  const Uint256 x_inv = crypto::scalar_inv(participant.private_key);
  PvssDecryptedShare dec;
  dec.index = index;
  dec.s = crypto::scalar_mul(x_inv, enc.y);
  // Prove log_G(P_i) == log_{S_i}(Y_i) (same x_i), publicly checkable.
  dec.proof = dleq_prove(crypto::generator(), participant.public_key, dec.s, enc.y,
                         participant.private_key, drbg);
  return dec;
}

bool pvss_verify_decrypted(const PvssDeal& deal, const PvssDecryptedShare& share,
                           const Point& participant_key) {
  if (share.index == 0 || share.index > deal.shares.size()) return false;
  const PvssEncryptedShare& enc = deal.shares[share.index - 1];
  if (!crypto::on_curve(share.s) || share.s.infinity) return false;
  return dleq_verify(crypto::generator(), participant_key, share.s, enc.y, share.proof);
}

Result<Point> pvss_combine(const std::vector<PvssDecryptedShare>& shares, std::size_t k) {
  if (k == 0) return Error{ErrorCode::kInvalidArgument, "pvss_combine: k == 0"};
  std::vector<const PvssDecryptedShare*> chosen;
  std::vector<bool> seen(256, false);
  for (const auto& s : shares) {
    if (s.index == 0 || s.index >= seen.size() || seen[s.index]) continue;
    seen[s.index] = true;
    chosen.push_back(&s);
    if (chosen.size() == k) break;
  }
  if (chosen.size() < k) {
    return Error{ErrorCode::kInvalidArgument, "pvss_combine: fewer than k distinct shares"};
  }

  // Lagrange at 0 over Z_n, then combine in the exponent.
  std::vector<std::pair<Uint256, Point>> terms;
  terms.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    Uint256 num(1), den(1);
    const Uint256 xi(chosen[i]->index);
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) continue;
      const Uint256 xj(chosen[j]->index);
      num = crypto::scalar_mul_mod_n(num, xj);
      den = crypto::scalar_mul_mod_n(den, crypto::scalar_sub(xj, xi));
    }
    terms.emplace_back(crypto::scalar_mul_mod_n(num, crypto::scalar_inv(den)), chosen[i]->s);
  }
  return crypto::scalar_mul_sum(terms);
}

Point pvss_public_secret(const Uint256& secret) { return crypto::scalar_mul_base(secret); }

Bytes pvss_secret_key(const Point& s_times_g) {
  return crypto::sha256(crypto::point_encode(s_times_g));
}

// ---------------------------------------------------------------- encoding

Bytes PvssDeal::serialize() const {
  Bytes out;
  append_u32(out, static_cast<std::uint32_t>(k));
  append_u32(out, static_cast<std::uint32_t>(commitments.size()));
  for (const Point& c : commitments) append_point(out, c);
  append_u32(out, static_cast<std::uint32_t>(shares.size()));
  for (const PvssEncryptedShare& s : shares) {
    append_u32(out, static_cast<std::uint32_t>(s.index));
    append_point(out, s.y);
    append_proof(out, s.proof);
  }
  return out;
}

Result<PvssDeal> PvssDeal::deserialize(BytesView b) {
  try {
    PvssDeal deal;
    std::size_t off = 0;
    deal.k = read_u32(b, off);
    off += 4;
    const std::uint32_t num_commitments = read_u32(b, off);
    off += 4;
    for (std::uint32_t i = 0; i < num_commitments; ++i) {
      deal.commitments.push_back(read_point(b, &off));
    }
    const std::uint32_t num_shares = read_u32(b, off);
    off += 4;
    for (std::uint32_t i = 0; i < num_shares; ++i) {
      PvssEncryptedShare s;
      s.index = read_u32(b, off);
      off += 4;
      s.y = read_point(b, &off);
      s.proof = read_proof(b, &off);
      deal.shares.push_back(std::move(s));
    }
    if (off != b.size()) return Error{ErrorCode::kCorrupted, "pvss deal: trailing bytes"};
    return deal;
  } catch (const std::exception& e) {
    return Error{ErrorCode::kCorrupted, std::string("pvss deal: ") + e.what()};
  }
}

Bytes PvssDecryptedShare::serialize() const {
  Bytes out;
  append_u32(out, static_cast<std::uint32_t>(index));
  append_point(out, s);
  append_proof(out, proof);
  return out;
}

Result<PvssDecryptedShare> PvssDecryptedShare::deserialize(BytesView b) {
  try {
    PvssDecryptedShare share;
    std::size_t off = 0;
    share.index = read_u32(b, off);
    off += 4;
    share.s = read_point(b, &off);
    share.proof = read_proof(b, &off);
    if (off != b.size()) {
      return Error{ErrorCode::kCorrupted, "pvss decrypted share: trailing bytes"};
    }
    return share;
  } catch (const std::exception& e) {
    return Error{ErrorCode::kCorrupted, std::string("pvss decrypted share: ") + e.what()};
  }
}

}  // namespace rockfs::secretshare
