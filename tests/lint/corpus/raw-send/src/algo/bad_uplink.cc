// wsnq-lint corpus: raw-send. A protocol that walks post order by hand and
// sends its own uplinks bypasses the wave engine. NOT compiled.

void SummaryRound(Network* net, std::vector<Summary>& rows) {
  net->NoteConvergecast();  // lint-expect: raw-send
  for (int v : net->tree().post_order) {
    if (!net->SendToParent(v, rows[v].Bits())) {  // lint-expect: raw-send
      rows[v].Clear();
    }
  }
}

void Announce(Network& net, int v) {
  net.BroadcastToChildren(v, 16);  // lint-expect: raw-send
}

// Negatives: the engine entry point, the flood, prose and strings.
void WaveRound(Network* net, SummaryOps& ops) {
  RunConvergecastWave(net, ops);
  net->FloodFromRoot(16);
}
// Calling net->SendToParent(v, bits) here would be a finding.
const char* kHint = "net->NoteConvergecast() belongs to net/wave.h";
