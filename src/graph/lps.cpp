#include "graph/lps.hpp"

#include <array>
#include <cmath>
#include <cstdlib>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ewalk {

bool is_prime_u32(std::uint32_t n) {
  if (n < 2) return false;
  if (n % 2 == 0) return n == 2;
  for (std::uint64_t d = 3; d * d <= n; d += 2)
    if (n % d == 0) return false;
  return true;
}

std::uint64_t pow_mod(std::uint64_t base, std::uint64_t exp, std::uint64_t modulus) {
  std::uint64_t result = 1 % modulus;
  base %= modulus;
  while (exp > 0) {
    if (exp & 1) result = result * base % modulus;
    base = base * base % modulus;
    exp >>= 1;
  }
  return result;
}

int legendre_symbol(std::uint64_t a, std::uint64_t p) {
  a %= p;
  if (a == 0) return 0;
  const std::uint64_t e = pow_mod(a, (p - 1) / 2, p);
  return e == 1 ? 1 : -1;
}

std::uint64_t sqrt_mod_prime(std::uint64_t a, std::uint64_t p) {
  a %= p;
  if (a == 0) return 0;
  if (legendre_symbol(a, p) != 1)
    throw std::invalid_argument("sqrt_mod_prime: a is not a quadratic residue");
  if (p % 4 == 3) return pow_mod(a, (p + 1) / 4, p);

  // Tonelli–Shanks. Write p-1 = Q * 2^S with Q odd.
  std::uint64_t q_odd = p - 1;
  std::uint32_t s = 0;
  while (q_odd % 2 == 0) {
    q_odd /= 2;
    ++s;
  }
  // A quadratic non-residue z.
  std::uint64_t z = 2;
  while (legendre_symbol(z, p) != -1) ++z;

  std::uint64_t m = s;
  std::uint64_t c = pow_mod(z, q_odd, p);
  std::uint64_t t = pow_mod(a, q_odd, p);
  std::uint64_t r = pow_mod(a, (q_odd + 1) / 2, p);
  while (t != 1) {
    std::uint64_t i = 0;
    std::uint64_t t2 = t;
    while (t2 != 1) {
      t2 = t2 * t2 % p;
      ++i;
      if (i == m) throw std::logic_error("sqrt_mod_prime: no square root found");
    }
    std::uint64_t b = c;
    for (std::uint64_t j = 0; j + i + 1 < m; ++j) b = b * b % p;
    m = i;
    c = b * b % p;
    t = t * c % p;
    r = r * b % p;
  }
  return r;
}

namespace {

/// 2x2 matrix over Z_q, canonicalised to a unique projective representative
/// (first nonzero entry scaled to 1). Packed into a uint64 for hashing.
struct Mat {
  std::array<std::uint64_t, 4> a;  // row major: a[0]=m00 a[1]=m01 a[2]=m10 a[3]=m11
};

Mat mat_mul(const Mat& x, const Mat& y, std::uint64_t q) {
  Mat r;
  r.a[0] = (x.a[0] * y.a[0] + x.a[1] * y.a[2]) % q;
  r.a[1] = (x.a[0] * y.a[1] + x.a[1] * y.a[3]) % q;
  r.a[2] = (x.a[2] * y.a[0] + x.a[3] * y.a[2]) % q;
  r.a[3] = (x.a[2] * y.a[1] + x.a[3] * y.a[3]) % q;
  return r;
}

std::uint64_t inverse_mod(std::uint64_t a, std::uint64_t q) {
  return pow_mod(a, q - 2, q);  // q prime
}

/// Scales so the first nonzero entry is 1 — canonical under PGL scaling.
Mat canonicalize(Mat m, std::uint64_t q) {
  for (const std::uint64_t entry : m.a) {
    if (entry != 0) {
      const std::uint64_t inv = inverse_mod(entry, q);
      for (auto& x : m.a) x = x * inv % q;
      return m;
    }
  }
  throw std::logic_error("canonicalize: zero matrix");
}

std::uint64_t pack(const Mat& m) {
  // q < 2^16 for all supported parameters, so 4 entries fit in 64 bits.
  return (m.a[0] << 48) | (m.a[1] << 32) | (m.a[2] << 16) | m.a[3];
}

}  // namespace

std::uint64_t lps_expected_order(const LpsParams& params) {
  const std::uint64_t q = params.q;
  const std::uint64_t pgl_order = q * (q * q - 1);
  return lps_is_psl_case(params) ? pgl_order / 2 : pgl_order;
}

bool lps_is_psl_case(const LpsParams& params) {
  return legendre_symbol(params.p, params.q) == 1;
}

Graph lps_graph(const LpsParams& params) {
  const std::uint32_t p = params.p;
  const std::uint64_t q = params.q;
  if (!is_prime_u32(p) || p % 4 != 1)
    throw std::invalid_argument("lps_graph: p must be a prime == 1 (mod 4)");
  if (!is_prime_u32(params.q) || q % 4 != 1)
    throw std::invalid_argument("lps_graph: q must be a prime == 1 (mod 4)");
  if (p == q) throw std::invalid_argument("lps_graph: p and q must be distinct");
  if (q >= (1u << 16)) throw std::invalid_argument("lps_graph: q too large (>= 2^16)");
  if (static_cast<double>(q) <= 2.0 * std::sqrt(static_cast<double>(p)))
    throw std::invalid_argument("lps_graph: need q > 2*sqrt(p)");

  // Enumerate the p+1 quaternions a0^2+a1^2+a2^2+a3^2 = p, a0 > 0 odd,
  // a1, a2, a3 even (sign-free count is exactly p+1 by Jacobi's theorem).
  struct Quat {
    std::int64_t a0, a1, a2, a3;
  };
  std::vector<Quat> gens_q;
  const std::int64_t bound = static_cast<std::int64_t>(std::sqrt(static_cast<double>(p))) + 1;
  const std::int64_t even_bound = bound - (bound & 1);  // largest even <= bound
  for (std::int64_t a0 = 1; a0 <= bound; a0 += 2)
    for (std::int64_t a1 = -even_bound; a1 <= even_bound; a1 += 2)
      for (std::int64_t a2 = -even_bound; a2 <= even_bound; a2 += 2)
        for (std::int64_t a3 = -even_bound; a3 <= even_bound; a3 += 2)
          if (a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 == static_cast<std::int64_t>(p))
            gens_q.push_back(Quat{a0, a1, a2, a3});
  if (gens_q.size() != p + 1)
    throw std::logic_error("lps_graph: quaternion enumeration did not yield p+1 generators");

  const std::uint64_t i_mod = sqrt_mod_prime(q - 1, q);  // i^2 == -1 (mod q)
  const auto to_mod = [&](std::int64_t x) {
    std::int64_t r = x % static_cast<std::int64_t>(q);
    if (r < 0) r += static_cast<std::int64_t>(q);
    return static_cast<std::uint64_t>(r);
  };

  std::vector<Mat> generators;
  generators.reserve(gens_q.size());
  for (const auto& [a0, a1, a2, a3] : gens_q) {
    Mat m;
    m.a[0] = (to_mod(a0) + i_mod * to_mod(a1)) % q;
    m.a[1] = (to_mod(a2) + i_mod * to_mod(a3)) % q;
    m.a[2] = (to_mod(-a2) + i_mod * to_mod(a3)) % q;
    m.a[3] = (to_mod(a0) + (q - i_mod % q) * to_mod(a1) % q) % q;
    generators.push_back(canonicalize(m, q));
  }

  // BFS over the Cayley graph from the identity.
  const Mat identity = canonicalize(Mat{{1, 0, 0, 1}}, q);
  std::unordered_map<std::uint64_t, Vertex> index;
  std::vector<Mat> elems;
  index.reserve(lps_expected_order(params) * 2);
  elems.reserve(lps_expected_order(params));

  index.emplace(pack(identity), 0);
  elems.push_back(identity);
  EdgeList edges;
  edges.reserve(lps_expected_order(params) * (p + 1) / 2);

  std::queue<Vertex> frontier;
  frontier.push(0);
  while (!frontier.empty()) {
    const Vertex u = frontier.front();
    frontier.pop();
    const Mat mu = elems[u];
    for (const Mat& s : generators) {
      const Mat mw = canonicalize(mat_mul(s, mu, q), q);
      const std::uint64_t key = pack(mw);
      auto it = index.find(key);
      Vertex w;
      if (it == index.end()) {
        w = static_cast<Vertex>(elems.size());
        index.emplace(key, w);
        elems.push_back(mw);
        frontier.push(w);
      } else {
        w = it->second;
      }
      // The generator set is symmetric, so each undirected edge {u,w} is
      // produced once from u and once from w; keep the u < w copy. For the
      // supported parameters the girth exceeds 2, so u != w always.
      if (u < w) edges.push_back(Endpoints{u, static_cast<Vertex>(w)});
    }
  }

  return Graph::from_edges(static_cast<Vertex>(elems.size()), std::move(edges));
}

}  // namespace ewalk
