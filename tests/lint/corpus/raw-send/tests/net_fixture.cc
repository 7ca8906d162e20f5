// wsnq-lint corpus: the rule covers src/ only; tests drive the Network
// directly. No findings expected here. NOT compiled.

void SendsOnce(Network& net) {
  net.NoteConvergecast();
  net.SendToParent(1, 32);
}
