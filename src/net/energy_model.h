// First-order radio energy model (§5.1.4, after Heinzelman et al.):
//   E_send(s, rho) = s * (alpha_tx + beta * rho^p)
//   E_recv(s)      = s * alpha_rx
// with s in bits and rho the (global) radio range in meters. Sleeping is
// free, and — because the paper assumes a scheduling MAC — a node pays
// receive energy only for packets actually addressed to it.
//
// NOTE: the paper prints "alpha = 50 mJ/bit" with a 30 mJ initial supply,
// under which no node could transmit one bit; we use the standard constants
// of the cited model (nJ / pJ scale). See DESIGN.md §1.2.

#ifndef WSNQ_NET_ENERGY_MODEL_H_
#define WSNQ_NET_ENERGY_MODEL_H_

#include <cmath>
#include <cstdint>

namespace wsnq {

/// Radio energy parameters. All energies are in millijoules (mJ).
struct EnergyModel {
  /// Distance-independent transmit electronics cost [mJ/bit] (50 nJ/bit).
  double alpha_tx_mj_per_bit = 50e-6;
  /// Amplifier constant [mJ/bit/m^p] (10 pJ/bit/m^2).
  double beta_mj_per_bit_mp = 10e-9;
  /// Path-loss exponent.
  double path_loss_exponent = 2.0;
  /// Receive electronics cost [mJ/bit] (50 nJ/bit).
  double alpha_rx_mj_per_bit = 50e-6;
  /// Initial per-node energy supply [mJ] (§5.1.4: 30 mJ).
  double initial_energy_mj = 30.0;

  /// Energy to transmit one bit over range `rho` meters [mJ/bit]. A
  /// Network evaluates it once at construction (its rho never changes).
  double SendCostPerBit(double rho) const {
    return alpha_tx_mj_per_bit +
           beta_mj_per_bit_mp * std::pow(rho, path_loss_exponent);
  }

  /// Energy to transmit `bits` over range `rho` meters [mJ].
  double SendCost(int64_t bits, double rho) const {
    return static_cast<double>(bits) * SendCostPerBit(rho);
  }

  /// Energy to receive `bits` [mJ].
  double RecvCost(int64_t bits) const {
    return static_cast<double>(bits) * alpha_rx_mj_per_bit;
  }
};

}  // namespace wsnq

#endif  // WSNQ_NET_ENERGY_MODEL_H_
