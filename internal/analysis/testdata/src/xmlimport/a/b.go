package a

//lint:allow xmlimport reference decoder kept for a format migration
import "encoding/xml"

func local(n xml.Name) string { return n.Local }
