let station ?on_phase ?config () = Notification.station ?on_phase (Lesu.protocol ?config ())
let pool ?on_phase ?config () = Notification.pool ?on_phase (Lesu.protocol ?config ())
