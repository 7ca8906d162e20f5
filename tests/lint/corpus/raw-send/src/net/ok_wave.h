// wsnq-lint corpus: src/net/ owns the uplinks (net/wave.h drives them).
// No findings expected here. NOT compiled.

template <typename Ops>
void RunConvergecastWave(Network* net, Ops&& ops) {
  net->NoteConvergecast();
  for (int v : net->tree().post_order) {
    const WaveSend send = ops.Process(v);
    if (!net->SendToParent(v, send.payload_bits)) ops.OnLost(v);
  }
}
